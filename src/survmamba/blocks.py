"""Composite sequence blocks: the bidirectional selective-scan block and
the two-modality interaction fusion block.

Each block call is one tape node, folded as Mamba's ``mamba_inner_fn``
(Gu & Dao 2023) folds a block. Its parents are the tokens (both token
sets for the fusion block) and every parameter of the block, branch
parameters included. Its forward runs the norm, the projections, the
SiLU gates, the flips, the concatenation, the output projection and the
residual in numpy; its backward is written by hand and calls the scan
branches' own backward, which calls the scan's.

Both blocks run two scan branches over the same runs, each with the same
recipe: causal depthwise conv, SiLU, input-dependent B/C/timescale
projections, discretization, selective scan. The bidirectional block
runs one branch forward and one on the reversed runs (re-reversing its
output), gates both by SiLU of a shared z-projection, sums, projects
back to the token dim and adds the residual. The fusion block runs one
branch per modality and cross-gates: each modality's scan output is
gated by SiLU of the *other* modality's z-projection; gated outputs are
concatenated and projected, with no residual path. Both take flat (L, D)
tokens holding independent sequences end to end, and the
``numerics.Runs`` of those sequences: the conv and the scan restart at
every run.

While the tape records, a block runs its two branches as one stacked
branch, side by side as bidirectional Mamba blocks pair their two
directions (Vision Mamba, Zhu et al. 2024): (2, L, E) inputs over one
Runs, with the conv, SiLU, softplus and the scan run once over the
leading branch axis (G = 2) and each projection on its own branch's
weights, which are never stacked. That holds where each branch's scan
runs as one forward chunk of ``ssm.CHUNK_BYTES``, as in every block
call of a desk training step: such a scan keeps its chunk for backward
and its time goes to Python work per step, which the stack pays once.
A longer scan recomputes its states slab by slab in backward, stacked
it would hold both branches' slab buffers at once, and its steps are
bound by arithmetic, which a stack does not cut (every paper-width
call). Those, and every call under ``no_grad`` (scoring, whose scan
chunks and peak memory thus stay those of one branch), call the branch
kernel once per branch (G = 1) on that branch's (L, E) rows. Under
``no_grad`` a block keeps nothing and frees each intermediate once it
has been used; its backward drops each saved array once past its last
use, as the sweep freed the nodes of the composition. A ``ScanBranch``
holds one branch's parameters and runs nothing itself; the block owns
the disc mode of both its branches.

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
    _layer_norm,
    _layer_norm_grads,
    _node,
    _records,
    _sigmoid_np,
    _softplus_np,
    uniform_init,
)
from . import ssm
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


def _affine(x: np.ndarray, ws, bs) -> np.ndarray:
    """x @ w + b for a lone branch's (L, I) rows, or for each branch's
    part of a (G, L, I) stack with its own weight and bias Tensors; the
    weights are never stacked."""
    out = np.empty(x.shape[:-1] + ws[0].data.shape[-1:])
    lone = x.ndim == 2
    for xg, w, b, o in zip((x,) if lone else x, ws, bs, (out,) if lone else out):
        np.matmul(xg, w.data, out=o)
        o += b.data
    return out


def _branches(x: np.ndarray, branches, runs: Runs, mode: str, record: bool) -> tuple:
    """The scan branches' numpy forward over x, discretized by mode: a
    lone branch's flat (L, E) rows, or a (G, L, E) stack with branches[g]
    over x[g]. The conv, SiLU, softplus and the scan run once
    over the stack; each projection runs per branch on its own weights.
    Returns y, shaped as x, and, when record, the backward gy -> dx,
    which gives each branch's nine parameters their gradients; else None,
    having kept nothing."""
    lone = x.ndim == 2
    each = (lambda a: (a,)) if lone else tuple  # each branch's part of an array over the stack
    kernel, cbias, wb, bb, wc, bc, wd, bd, a_log = zip(*(br.params for br in branches))
    if lone:
        kernel, cbias, a_log = kernel[0].data, cbias[0].data, a_log[0].data
    else:
        kernel, cbias, a_log = (np.array([t.data for t in ts]) for ts in (kernel, cbias, a_log))
    conv = _conv1d(x, kernel, cbias, runs)
    sig = _sigmoid_np(conv)
    xs = conv * sig
    if not record:  # each goes as soon as it is used
        conv = sig = None
    bproj = _affine(xs, wb, bb)
    cproj = _affine(xs, wc, bc)
    pre = _affine(xs, wd, bd)
    delta = _softplus_np(pre)
    if not record:
        pre = None
    a = -np.exp(a_log)
    leaves = [Tensor(v, requires_grad=record) for v in (xs, delta, a, bproj, cproj)]
    x_in, delta_in, a_in, b_in, c_in = leaves
    y = selective_scan_recurrent(x_in, discretize(delta_in, a_in, b_in, mode, runs=runs), c_in)
    if not record:
        return y.data, None

    def backward(gy):
        nonlocal y, leaves, pre  # each dropped once used, as the sweep drops a node's saved arrays
        y._backward(gy)
        dxs, ddelta, da, dbp, dcp = [t.grad for t in leaves]
        y = leaves = None
        dpre = ddelta * _sigmoid_np(pre)
        ddelta = pre = None
        da *= a  # through A = -exp(a_log)
        for br, d, xg, gd, gb, gc, ga in zip(branches, each(dxs), each(xs), each(dpre), each(dbp), each(dcp), each(da)):
            d += gd @ br.linear_delta.data.T  # scan, delta, B, C: the order a tape of one node per op sums in
            d += gb @ br.linear_b.weight.data.T
            d += gc @ br.linear_c.weight.data.T
            _give((br.linear_b.weight, lambda: xg.T @ gb), (br.linear_b.bias, lambda: gb.sum(axis=0)),
                  (br.linear_c.weight, lambda: xg.T @ gc), (br.linear_c.bias, lambda: gc.sum(axis=0)),
                  (br.linear_delta, lambda: xg.T @ gd), (br.delta_bias, lambda: gd.sum(axis=0)),
                  (br.a_log, lambda: ga))
        dx, dk, dcb = _conv1d_grads(dxs * sig * (1.0 + conv * (1.0 - sig)), x, kernel, runs, True)
        for br, k, cb in zip(branches, each(dk), each(dcb)):
            _give((br.conv_kernel, lambda: k), (br.conv_bias, lambda: cb))
        return dx

    return y.data, backward


def _give(*pairs):
    """Accumulate each (tensor, gradient thunk) pair in turn. A gradient is
    formed only for a tensor that needs one, and goes before the next is
    formed, as it did when each op was a node of its own."""
    for p, grad in pairs:
        if p.requires_grad:
            p._accum(grad())


def _pair(inputs, branches, runs: Runs, mode: str, record: bool) -> tuple:
    """A block's two scan branches, branches[g] over inputs[g](), a thunk
    for its flat (L, E) input: (y1, y2, backward), where backward, None
    unless record, takes (g1, g2), returns (dx1, dx2) and gives every
    branch parameter its gradient. See the module docstring for when the
    two run as one stacked branch (G = 2) and when one after the other
    (G = 1), each input then formed only when its branch runs."""
    e, n = branches[0].a_log.shape
    if record and ssm._chunk_steps(runs, e, n)[1] == len(runs.width):
        ys, back = _branches(np.array([make() for make in inputs]), branches, runs, mode, True)
        return ys[0], ys[1], lambda g1, g2: back(np.array([g1, g2]))
    (y1, back1), (y2, back2) = (_branches(make(), (br,), runs, mode, record) for make, br in zip(inputs, branches))
    if not record:
        return y1, y2, None

    def backward(g1, g2):
        nonlocal back1, back2  # each branch's saved arrays go once its backward has run
        dx1 = back1(g1)
        back1 = None
        dx2 = back2(g2)
        back2 = None
        return dx1, dx2

    return y1, y2, backward


class ScanBranch(Module):
    """The nine parameters of one direction/modality of the selective
    scan: conv -> SiLU -> (B, C, delta) projections -> discretize -> scan,
    which the blocks run inside their own nodes."""

    def __init__(self, e: int, n: int, w: int, rng: np.random.Generator):
        super().__init__()
        self.conv_kernel = Tensor(uniform_init(rng, (e, w), w), requires_grad=True)
        self.conv_bias = Tensor(np.zeros(e), requires_grad=True)
        self.linear_b = LinearLayer(e, n, rng)
        self.linear_c = LinearLayer(e, n, rng)
        self.linear_delta = Tensor(uniform_init(rng, (e, e), e), requires_grad=True)
        self.delta_bias = Tensor(_init_dt_bias(rng, e), requires_grad=True)
        self.a_log = Tensor(_init_a_log(e, n), requires_grad=True)

    @property
    def params(self) -> tuple:
        """The nine parameters, in the order the branch kernel takes them."""
        return (self.conv_kernel, self.conv_bias, self.linear_b.weight, self.linear_b.bias,
                self.linear_c.weight, self.linear_c.bias, self.linear_delta, self.delta_bias, self.a_log)


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
        self.disc_mode = disc_mode
        self.norm = LayerNorm(d_model)
        self.linear_x = LinearLayer(d_model, e, rng)
        self.linear_z = LinearLayer(d_model, e, rng)
        self.fwd = ScanBranch(e, n_state, conv_width, rng)
        self.bwd = ScanBranch(e, n_state, conv_width, rng)
        self.linear_out = LinearLayer(e, d_model, rng, zero_init=True)

    def __call__(self, tokens: Tensor, runs: Runs) -> Tensor:
        _check_tokens("bi-mamba", tokens, runs, self.d_model)
        norm, lx, lz, lo, fwd, bwd = self.norm, self.linear_x, self.linear_z, self.linear_out, self.fwd, self.bwd
        params = (norm.gamma, norm.beta, lx.weight, lx.bias, lz.weight, lz.bias, *fwd.params, *bwd.params,
                  lo.weight, lo.bias)
        parents = (tokens,) + params
        record = _records(parents)
        normed, xhat, inv = _layer_norm(tokens.data, norm.gamma.data, norm.beta.data, norm.eps)
        x = normed @ lx.weight.data + lx.bias.data
        zl = normed @ lz.weight.data + lz.bias.data
        sz = _sigmoid_np(zl)
        gate = zl * sz
        if not record:  # each intermediate goes once used
            normed = xhat = inv = zl = sz = None
        y_f, y_b, back = _pair((lambda: x, lambda: runs.flip(x)), (fwd, bwd), runs, self.disc_mode, record)
        y_b = runs.flip(y_b)
        x = None
        y = y_f * gate + y_b * gate
        if not record:
            y_f = y_b = gate = None
        out = y @ lo.weight.data + lo.bias.data
        out += tokens.data

        def backward(g):
            nonlocal y, y_f, y_b, gate, zl, sz, back  # each dropped once used
            _give((lo.weight, lambda: y.T @ g), (lo.bias, lambda: g.sum(axis=0)))
            dy = g @ lo.weight.data.T
            gy = dy * gate
            dgate = dy * y_f
            dgate += dy * y_b
            dzl = dgate * sz * (1.0 + zl * (1.0 - sz))
            y = y_f = y_b = gate = zl = sz = dy = dgate = None
            dxs = back(gy, runs.flip(gy))
            back = gy = None
            dx = dxs[0] + runs.flip(dxs[1])
            dnormed = dx @ lx.weight.data.T
            dnormed += dzl @ lz.weight.data.T
            dtokens, dgamma, dbeta = _layer_norm_grads(dnormed, norm.gamma.data, xhat, inv, tokens.requires_grad)
            _give((tokens, lambda: g), (tokens, lambda: dtokens),  # the residual first, as a tape of one node per op did
                  (norm.gamma, lambda: dgamma), (norm.beta, lambda: dbeta),
                  (lx.weight, lambda: normed.T @ dx), (lx.bias, lambda: dx.sum(axis=0)),
                  (lz.weight, lambda: normed.T @ dzl), (lz.bias, lambda: dzl.sum(axis=0)))

        return _node(out, parents, backward)


class IFMModality(Module):
    """Per-modality parameters of the fusion block."""

    def __init__(self, d: int, e: int, n: int, w: int, rng):
        super().__init__()
        self.norm = LayerNorm(d)
        self.in_proj = LinearLayer(d, e, rng)
        self.branch = ScanBranch(e, n, w, rng)


class IFMBlock(Module):
    """Cross-gated two-modality fusion over two flat (L, D) token sets of
    equal shape that share one set of runs."""

    def __init__(self, d_model: int, e_expand: int, n_state: int = 16, conv_width: int = 4, *,
                 rng: np.random.Generator, disc_mode: str = "euler"):
        super().__init__()
        e = e_expand
        self.d_model, self.e_expand, self.n_state, self.conv_width = d_model, e, n_state, conv_width
        self.disc_mode = disc_mode
        self.m1 = IFMModality(d_model, e, n_state, conv_width, rng)
        self.m2 = IFMModality(d_model, e, n_state, conv_width, rng)
        self.linear_z = LinearLayer(d_model, e, rng)
        self.linear_out = LinearLayer(2 * e, d_model, rng, zero_init=True)

    def __call__(self, tokens_a: Tensor, tokens_b: Tensor, runs: Runs) -> Tensor:
        if tokens_a.shape != tokens_b.shape:
            raise ShapeError(
                f"ifm: modality shapes differ, {tokens_a.shape} vs {tokens_b.shape}; "
                "align sequence lengths before fusing"
            )
        _check_tokens("ifm", tokens_a, runs, self.d_model)
        m1, m2, lz, lo = self.m1, self.m2, self.linear_z, self.linear_out
        params = (m1.norm.gamma, m1.norm.beta, m1.in_proj.weight, m1.in_proj.bias, *m1.branch.params,
                  m2.norm.gamma, m2.norm.beta, m2.in_proj.weight, m2.in_proj.bias, *m2.branch.params,
                  lz.weight, lz.bias, lo.weight, lo.bias)
        parents = (tokens_a, tokens_b) + params
        record = _records(parents)
        n1, xhat1, inv1 = _layer_norm(tokens_a.data, m1.norm.gamma.data, m1.norm.beta.data, m1.norm.eps)
        n2, xhat2, inv2 = _layer_norm(tokens_b.data, m2.norm.gamma.data, m2.norm.beta.data, m2.norm.eps)
        w1, b1, w2, b2 = m1.in_proj.weight.data, m1.in_proj.bias.data, m2.in_proj.weight.data, m2.in_proj.bias.data
        if not record:  # each intermediate goes once used
            xhat1 = inv1 = xhat2 = inv2 = None
        y1, y2, back = _pair((lambda: n1 @ w1 + b1, lambda: n2 @ w2 + b2), (m1.branch, m2.branch), runs,
                           self.disc_mode, record)
        zl1 = n1 @ lz.weight.data + lz.bias.data
        zl2 = n2 @ lz.weight.data + lz.bias.data
        s1, s2 = _sigmoid_np(zl1), _sigmoid_np(zl2)
        z1, z2 = zl1 * s1, zl2 * s2
        if not record:
            n1 = n2 = zl1 = zl2 = s1 = s2 = None
        cat = np.concatenate([y1 * z2, y2 * z1], axis=-1)
        if not record:
            y1 = y2 = z1 = z2 = None
        out = cat @ lo.weight.data + lo.bias.data

        def backward(g):
            nonlocal cat, y1, y2, z1, z2, zl1, zl2, s1, s2, back  # each dropped once used
            _give((lo.weight, lambda: cat.T @ g), (lo.bias, lambda: g.sum(axis=0)))
            cat = None
            e = y1.shape[-1]
            dcat = g @ lo.weight.data.T
            d1, d2 = dcat[:, :e], dcat[:, e:]
            dzl1 = d2 * y2 * s1 * (1.0 + zl1 * (1.0 - s1))
            dzl2 = d1 * y1 * s2 * (1.0 + zl2 * (1.0 - s2))
            dxs = back(d1 * z2, d2 * z1)
            back = y1 = y2 = z1 = z2 = zl1 = zl2 = s1 = s2 = dcat = d1 = d2 = None
            # modality 2, then 1: the shared z takes its two gradients in the
            # order a tape of one node per op swept them, which a minibatch's
            # sum onto earlier gradients shows
            for m, tokens, n, xhat, inv, dxm, dzl in ((m2, tokens_b, n2, xhat2, inv2, dxs[1], dzl2),
                                                     (m1, tokens_a, n1, xhat1, inv1, dxs[0], dzl1)):
                dn = dxm @ m.in_proj.weight.data.T
                dn += dzl @ lz.weight.data.T
                dtokens, dgamma, dbeta = _layer_norm_grads(dn, m.norm.gamma.data, xhat, inv, tokens.requires_grad)
                _give((tokens, lambda: dtokens), (m.norm.gamma, lambda: dgamma), (m.norm.beta, lambda: dbeta),
                      (m.in_proj.weight, lambda: n.T @ dxm), (m.in_proj.bias, lambda: dxm.sum(axis=0)),
                      (lz.weight, lambda: n.T @ dzl), (lz.bias, lambda: dzl.sum(axis=0)))

        return _node(out, parents, backward)
