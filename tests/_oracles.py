"""Independent oracle implementations used by the tests.

Everything here is deliberately plain numpy, written as straight-line
transcriptions with explicit loops, sharing no code paths with the
library. The point is a second, dumber route to the same numbers. The
parallel scan and the LTI kernel take the library's DiscreteParams and
shape check, but do their own arithmetic. ``flat_runs`` turns the
(B, M, ...) batches the transcriptions work on into the one input form
of the library's blocks and scan. The compositions further down replay
what the library's block nodes replaced, as tape ops of their own; the
ops the model no longer records (``exp_op``, ``softplus_op``, ``div_op``
and ``causal_depthwise_conv1d``) live here with them, on the library's
numpy kernels.
"""

import numpy as np

from survmamba.numerics import Runs, Tensor
from survmamba.ssm import DiscreteParams, _check_shapes


def flat_runs(*arrays):
    """(B, M, ...) arrays as Tensors of B*M flat rows each, followed by the
    Runs of their B equal runs of M rows."""
    b, m = arrays[0].shape[:2]
    return (*(Tensor(a.reshape(b * m, *a.shape[2:])) for a in arrays), Runs.cached((m,) * b))


def sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def silu(x):
    return x * sigmoid(x)


def softplus(x):
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def causal_conv(x, kernel, bias):
    """x (B, M, E), kernel (E, W); explicit triple loop."""
    b, m, e = x.shape
    w = kernel.shape[1]
    out = np.zeros_like(x)
    for bi in range(b):
        for t in range(m):
            for ei in range(e):
                acc = bias[ei]
                for k in range(w):
                    src = t - w + 1 + k
                    if src >= 0:
                        acc += kernel[ei, k] * x[bi, src, ei]
                out[bi, t, ei] = acc
    return out


def scan_recurrence(x, abar, bbar, c):
    """x (B, M, E), abar/bbar (B, M, E, N), c (B, M, N); explicit loops."""
    b, m, e = x.shape
    n = abar.shape[-1]
    y = np.zeros((b, m, e))
    for bi in range(b):
        h = np.zeros((e, n))
        for t in range(m):
            h = abar[bi, t] * h + bbar[bi, t] * x[bi, t][:, None]
            y[bi, t] = h @ c[bi, t]
    return y


def _branch(xs, br, disc_mode="euler"):
    """ScanBranch transcription: conv-silu already applied outside? No:
    this takes the branch INPUT (pre-conv) and replays the whole branch."""
    kern = br.conv_kernel.data
    cbias = br.conv_bias.data
    xs = silu(causal_conv(xs, kern, cbias))
    bproj = xs @ br.linear_b.weight.data + br.linear_b.bias.data
    cproj = xs @ br.linear_c.weight.data + br.linear_c.bias.data
    delta = softplus(xs @ br.linear_delta.data + br.delta_bias.data)
    a = -np.exp(br.a_log.data)
    abar = np.exp(delta[..., None] * a)
    if disc_mode == "euler":
        bbar = delta[..., None] * bproj[:, :, None, :]
    else:
        bbar = (abar - 1.0) / a * bproj[:, :, None, :]
    return scan_recurrence(xs, abar, bbar, cproj)


def bimamba_forward(block, tokens):
    """Line-by-line transcription of the bidirectional block."""
    t_in = np.asarray(tokens, dtype=np.float64)
    normed = layer_norm(t_in, block.norm.gamma.data, block.norm.beta.data)
    x = normed @ block.linear_x.weight.data + block.linear_x.bias.data
    z = normed @ block.linear_z.weight.data + block.linear_z.bias.data
    gate = silu(z)
    y_f = _branch(x, block.fwd, block.disc_mode)
    y_b = _branch(x[:, ::-1], block.bwd, block.disc_mode)[:, ::-1]
    summed = y_f * gate + y_b * gate
    return summed @ block.linear_out.weight.data + block.linear_out.bias.data + t_in


def ifm_forward(block, tok_a, tok_b):
    """Line-by-line transcription of the cross-gated fusion block."""
    a_in = np.asarray(tok_a, dtype=np.float64)
    b_in = np.asarray(tok_b, dtype=np.float64)
    n1 = layer_norm(a_in, block.m1.norm.gamma.data, block.m1.norm.beta.data)
    n2 = layer_norm(b_in, block.m2.norm.gamma.data, block.m2.norm.beta.data)
    x1 = n1 @ block.m1.in_proj.weight.data + block.m1.in_proj.bias.data
    x2 = n2 @ block.m2.in_proj.weight.data + block.m2.in_proj.bias.data
    y1 = _branch(x1, block.m1.branch, block.disc_mode)
    y2 = _branch(x2, block.m2.branch, block.disc_mode)
    z1 = silu(n1 @ block.linear_z.weight.data + block.linear_z.bias.data)
    z2 = silu(n2 @ block.linear_z.weight.data + block.linear_z.bias.data)
    cat = np.concatenate([y1 * z2, y2 * z1], axis=-1)
    return cat @ block.linear_out.weight.data + block.linear_out.bias.data


def scan_operator_combine(first, second):
    """The scan's associative operator on (a, b) pairs: apply `first`,
    then `second`."""
    a1, b1 = first
    a2, b2 = second
    return (a1 * a2, a2 * b1 + b2)


# Two forward-only routes through the scan's recurrence, on the library's
# DiscreteParams: the Blelloch parallel scan (any time-varying batch) and
# the unrolled convolution kernel (time-invariant parameters only).


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


def selective_scan_parallel(x: Tensor, dp: DiscreteParams, cproj: Tensor) -> Tensor:
    """Work-efficient parallel-scan route over each run of a flat (L, E)
    input, forward only: a cross-check on the recurrent scan that records
    no tape node. Matches the recurrent output to ~1e-10 (same math,
    different summation bracketing)."""
    runs = _check_shapes(x, dp, cproj)
    bx = dp.Bbar.data * x.data[..., None]
    y = np.empty(x.shape)
    for lo, k in zip(runs.starts, runs.sizes):
        rows = slice(lo, lo + k)
        h_all = _scan_parallel_states_impl(dp.Abar.data[None, rows], bx[None, rows])[0]
        y[rows] = np.matmul(h_all[:, :, None, :], cproj.data[rows, None, :, None])[..., 0, 0]
    return Tensor(y)


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


def cindex_bruteforce(risks, times, events):
    """All-pairs double loop, Harrell ties at 1/2."""
    n = len(risks)
    num = 0.0
    den = 0
    for i in range(n):
        for j in range(n):
            if events[i] == 1 and times[i] < times[j]:
                den += 1
                if risks[i] > risks[j]:
                    num += 1.0
                elif risks[i] == risks[j]:
                    num += 0.5
    if den == 0:
        return None
    return num / den


def chi2_sf_quadrature(x, df=1, n=200_000):
    """P(X > x) by direct Simpson integration of the chi-square density
    over [x, x + 60 sqrt(2 df) + 60]."""
    from math import lgamma

    hi = x + 60.0 * np.sqrt(2.0 * df) + 60.0
    t = np.linspace(x, hi, 2 * n + 1)
    k = df / 2.0
    log_pdf = (k - 1.0) * np.log(np.maximum(t, 1e-300)) - t / 2.0 - k * np.log(2.0) - lgamma(k)
    pdf = np.exp(log_pdf)
    h = (hi - x) / (2 * n)
    weights = np.ones_like(t)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(weights * pdf))


def radam_reference(theta0, grads, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """Replay of the documented update rule on a scalar trajectory."""
    theta = float(theta0)
    m = 0.0
    v = 0.0
    rho_inf = 2.0 / (1.0 - beta2) - 1.0
    for t, g in enumerate(grads, start=1):
        theta *= 1.0 - lr * wd
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        rho = rho_inf - 2.0 * t * beta2**t / (1.0 - beta2**t)
        if rho > 4.0:
            r = np.sqrt(((rho - 4.0) * (rho - 2.0) * rho_inf) / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho))
            theta -= lr * r * m_hat / (np.sqrt(v / (1.0 - beta2**t)) + eps)
        else:
            theta -= lr * m_hat
    return theta


class GatherRAdam:
    """The flat RAdam step before the gradient buffer: parameter data
    repacked into one flat vector, every gradient gathered into a second
    full-size vector on each step, and the update made over the whole
    vector with two full-size scratch arrays. The production optimizer
    must match it bit for bit."""

    def __init__(self, params, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        total = sum(p.data.size for _, p in self.params)
        self.flat = np.empty(total)
        self._slices = []
        off = 0
        for _, p in self.params:
            sl = slice(off, off + p.data.size)
            self.flat[sl] = p.data.reshape(-1)
            p.data = self.flat[sl].reshape(p.data.shape)
            self._slices.append(sl)
            off += p.data.size
        self.gflat = np.zeros(total)
        self.m = np.zeros(total)
        self.v = np.zeros(total)
        self._s1 = np.empty(total)
        self._s2 = np.empty(total)

    def step(self):
        self.t += 1
        for (_, p), sl in zip(self.params, self._slices):
            self.gflat[sl] = 0.0 if p.grad is None else p.grad.reshape(-1)
        t, g, m, v, s1, s2 = self.t, self.gflat, self.m, self.v, self._s1, self._s2
        b1, b2 = self.beta1, self.beta2
        self.flat *= 1.0 - self.lr * self.weight_decay
        m *= b1
        np.multiply(g, 1.0 - b1, out=s1)
        m += s1
        v *= b2
        np.multiply(g, g, out=s1)
        s1 *= 1.0 - b2
        v += s1
        rho_inf = 2.0 / (1.0 - b2) - 1.0
        rho = rho_inf - 2.0 * t * b2**t / (1.0 - b2**t)
        if rho > 4.0:
            np.multiply(v, 1.0 / (1.0 - b2**t), out=s1)
            np.sqrt(s1, out=s1)
            s1 += self.eps
            r = np.sqrt(((rho - 4.0) * (rho - 2.0) * rho_inf) / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho))
            np.multiply(m, self.lr * r / (1.0 - b1**t), out=s2)
            s2 /= s1
            self.flat -= s2
        else:
            np.multiply(m, self.lr / (1.0 - b1**t), out=s2)
            self.flat -= s2


def unfused_discretize(delta, A, Bproj, mode="euler"):
    """The discretization as it was before the fused scan: tape ops that
    keep (B, M, E, N) Abar and Bbar on the tape. Returns (Abar, Bbar)."""
    from survmamba.numerics import mul, reshape

    b, m, e = delta.shape
    n = A.shape[-1]
    d4 = reshape(delta, (b, m, e, 1))
    bp4 = reshape(Bproj, (b, m, 1, n))
    abar = exp_op(mul(d4, A))
    if mode == "euler":
        bbar = mul(d4, bp4)
    else:
        bbar = mul(div_op(abar - 1.0, A), bp4)
    return abar, bbar


def unfused_scan(x, abar, bbar, cproj):
    """The scan node as it was before the fused scan: it keeps the full
    state history h_all and differentiates into Abar and Bbar."""
    from survmamba.numerics import _node

    ad, bd, cd, xd = abar.data, bbar.data, cproj.data, x.data
    b_, m, e = xd.shape
    n = ad.shape[-1]
    bx = bd * xd[..., None]
    h_all = np.empty((b_, m, e, n))
    h = np.zeros((b_, e, n))
    for t in range(m):
        np.multiply(ad[:, t], h, out=h)
        h += bx[:, t]
        h_all[:, t] = h
    y = np.matmul(h_all, cd[..., None])[..., 0]

    def backward(g):
        gc = g[..., None] * cd[:, :, None, :]
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
            cproj._accum(np.matmul(g[:, :, None, :], h_all)[:, :, 0, :])

    return _node(y, (x, abar, bbar, cproj), backward)


def backward_keep_graph(root):
    """Tensor.backward as it was before swept nodes were freed: the same
    reverse topological sweep, leaving every gradient and closure in place."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    root._accum(np.ones_like(root.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def exp_op(a):
    """Elementwise e^a as a tape op."""
    from survmamba.numerics import _node

    out = np.exp(a.data)

    def backward(g):
        a._accum(g * out)

    return _node(out, (a,), backward)


def softplus_op(a):
    """The library's softplus kernel (``numerics._softplus_np``) as a tape
    op; backward forms the sigmoid."""
    from survmamba.numerics import _node, _sigmoid_np, _softplus_np

    x = a.data

    def backward(g):
        a._accum(g * _sigmoid_np(x))

    return _node(_softplus_np(x), (a,), backward)


def div_op(a, b):
    """Elementwise a / b of two Tensors as a tape op, broadcasting as
    numpy does."""
    from survmamba.numerics import _node, _unbroadcast

    out = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(out, (a, b), backward)


def causal_depthwise_conv1d(x, kernel, bias, runs):
    """The library's causal depthwise conv kernels (``numerics._conv1d``
    and ``_conv1d_grads``) as a tape op over Tensors x, kernel and bias."""
    from survmamba.numerics import _conv1d, _conv1d_grads, _node

    out = _conv1d(x.data, kernel.data, bias.data, runs)

    def backward(g):
        dx, dk, db = _conv1d_grads(g, x.data, kernel.data, runs, x.requires_grad)
        if bias.requires_grad:
            bias._accum(db)
        if kernel.requires_grad:
            kernel._accum(dk)
        if x.requires_grad:
            x._accum(dx)

    return _node(out, (x, kernel, bias), backward)


def scan_branch_composition(branch, x, runs, mode):
    """A scan branch as it ran before it became part of a block node: the
    conv, SiLU, the three projections, softplus and -exp(a_log) as tape ops
    of their own, then discretize by mode and the scan node, on the
    branch's parameters."""
    from survmamba.numerics import linear, neg, silu
    from survmamba.ssm import discretize, selective_scan_recurrent

    xs = silu(causal_depthwise_conv1d(x, branch.conv_kernel, branch.conv_bias, runs))
    bproj = branch.linear_b(xs)
    cproj = branch.linear_c(xs)
    delta = softplus_op(linear(xs, branch.linear_delta, branch.delta_bias))
    a = neg(exp_op(branch.a_log))
    dp = discretize(delta, a, bproj, mode, runs=runs)
    return selective_scan_recurrent(xs, dp, cproj)


def flip_runs(a, runs):
    """The per-run flip as a tape op, as the library had it before the
    bidirectional block became one node: reverse each run of a flat
    (L, ...) tensor in time; the permutation is its own inverse, so
    backward applies it again."""
    from survmamba.numerics import _node

    runs.check("flip_runs", a.data.shape[0])

    def backward(g):
        a._accum(runs.flip(g))

    return _node(runs.flip(a.data), (a,), backward)


def layer_norm_op(x, gamma, beta, eps=1e-5):
    """The layer-norm tape op as the library had it before the blocks
    became one node each: each row normalized over the last axis to zero
    mean and unit (population) variance, then scaled and shifted."""
    from survmamba.numerics import _node

    d = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = np.where(np.isfinite(var), 1.0 / np.sqrt(var + eps), np.nan)
    xhat = xc * inv
    out = xhat * gamma.data + beta.data

    def backward(g):
        if gamma.requires_grad:
            gamma._accum((g * xhat).reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            beta._accum(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx = g * gamma.data
            mean_gx = gx.mean(axis=-1, keepdims=True)
            mean_gx_xhat = (gx * xhat).mean(axis=-1, keepdims=True)
            x._accum(inv * (gx - mean_gx - xhat * mean_gx_xhat))

    return _node(out, (x, gamma, beta), backward)


def bimamba_composition(block, tokens, runs):
    """BiMambaBlock as it was before it became one tape node: the norm,
    the x/z projections, SiLU, the two branch compositions (the reversed
    one between two flips), the gates, the output projection and the residual
    as tape ops of their own, on the block's parameters."""
    from survmamba.numerics import silu

    normed = layer_norm_op(tokens, block.norm.gamma, block.norm.beta, block.norm.eps)
    x = block.linear_x(normed)
    gate = silu(block.linear_z(normed))
    y_f = scan_branch_composition(block.fwd, x, runs, block.disc_mode)
    y_b = flip_runs(scan_branch_composition(block.bwd, flip_runs(x, runs), runs, block.disc_mode), runs)
    return block.linear_out(y_f * gate + y_b * gate) + tokens


def ifm_composition(block, tokens_a, tokens_b, runs):
    """IFMBlock as it was before it became one tape node: per modality the
    norm, the in-projection and the branch composition, the shared z-projection
    with SiLU, the cross gates, the concatenation and the output
    projection as tape ops of their own."""
    from survmamba.numerics import concat, silu

    m1, m2 = block.m1, block.m2
    n1 = layer_norm_op(tokens_a, m1.norm.gamma, m1.norm.beta, m1.norm.eps)
    n2 = layer_norm_op(tokens_b, m2.norm.gamma, m2.norm.beta, m2.norm.eps)
    y1 = scan_branch_composition(m1.branch, m1.in_proj(n1), runs, block.disc_mode)
    y2 = scan_branch_composition(m2.branch, m2.in_proj(n2), runs, block.disc_mode)
    z1 = silu(block.linear_z(n1))
    z2 = silu(block.linear_z(n2))
    return block.linear_out(concat([y1 * z2, y2 * z1], axis=-1))


def him_fine_per_length(tokens, block, runs):
    """him_fine as it was before one padded block call: one block call per
    distinct group length, on that length's groups gathered as equal runs,
    and one inverse gather over the concatenated outputs."""
    from survmamba.numerics import concat

    sizes = runs.sizes.tolist()
    lens = np.repeat(sizes, sizes)  # each token's group length
    runs = [(k, np.flatnonzero(lens == k)) for k in sorted(set(sizes))]
    outs = [block(tokens[idx], Runs.cached((k,) * (idx.size // k))) for k, idx in runs]
    return concat(outs, axis=0)[np.argsort(np.concatenate([idx for _, idx in runs]))]


def padded_causal_conv(x, kernel, bias):
    """The causal conv as it ran on (B, M, E) batches before every
    sequence set became flat runs: one zero-padded copy of the input and
    one slice of it per tap, as one tape node over Tensors x, kernel and
    bias."""
    from survmamba.numerics import _node

    b, m, e = x.data.shape
    w = kernel.data.shape[1]
    xp = np.zeros((b, m + w - 1, e))
    xp[:, w - 1 :] = x.data
    out = np.broadcast_to(bias.data, x.data.shape).copy()
    for k in range(w):
        out += kernel.data[:, k] * xp[:, k : k + m]

    def backward(g):
        if bias.requires_grad:
            bias._accum(g.sum(axis=(0, 1)))
        if kernel.requires_grad:
            dk = np.empty((e, w))
            for k in range(w):
                dk[:, k] = (g * xp[:, k : k + m]).sum(axis=(0, 1))
            kernel._accum(dk)
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for k in range(w):
                dxp[:, k : k + m] += g * kernel.data[:, k]
            x._accum(dxp[:, w - 1 :])

    return _node(out, (x, kernel, bias), backward)


def per_patient_risk(model, record):
    """SurvMambaModel.predict_risk as it was before stage-by-stage scoring
    of patient groups: one patient at a time, each stage called on that
    patient's own tokens, the coarse sequence and each fusion length as
    one freshly built run."""
    from survmamba.fusion import adaptive_fuse, align_fine_tokens
    from survmamba.numerics import no_grad, segment_mean, tmean

    def modality(tokens, runs, stacks):
        for blk in stacks.fine.blocks:
            tokens = blk(tokens, runs)
        seq, seq_runs = segment_mean(tokens, runs), Runs([len(runs)])
        for blk in stacks.coarse.blocks:
            seq = blk(seq, seq_runs)
        return tokens, seq

    def fuse(a, b, ifm, length):
        a, b = align_fine_tokens(a, b, length)
        return tmean(ifm(a, b, Runs([length])), axis=0)

    with no_grad():
        img, img_coarse = modality(*model.enc.histology(record.histology), model.him.image)
        gen, gen_coarse = modality(*model.enc.genomics([record.genomics]), model.him.genomics)
        h_fine = fuse(img, gen, model.ifm.fine, min(img.shape[0], gen.shape[0], model.cfg.align_len))
        h_coarse = fuse(img_coarse, gen_coarse, model.ifm.coarse, min(img_coarse.shape[0], gen_coarse.shape[0]))
        return model.head(adaptive_fuse(h_fine, h_coarse, model.fusion_alpha)).risk.item()


def kaplan_meier_loop(outcomes):
    """kaplan_meier as it was before the shared risk table: one pass over
    the distinct death times, counting at-risk and deaths at each and
    multiplying the running product. Returns (times, survival, at_risk,
    events)."""
    times = np.asarray([o.time for o in outcomes], dtype=np.float64)
    events = np.asarray([o.event for o in outcomes], dtype=np.int64)
    event_times = np.unique(times[events == 1])
    surv, at_risk, deaths = [], [], []
    s = 1.0
    for t in event_times:
        n_k = int(np.sum(times >= t))  # censored at t still at risk at t
        d_k = int(np.sum((times == t) & (events == 1)))
        s *= 1.0 - d_k / n_k
        surv.append(s)
        at_risk.append(n_k)
        deaths.append(d_k)
    return (event_times, np.asarray(surv, dtype=np.float64), np.asarray(at_risk, dtype=np.int64),
            np.asarray(deaths, dtype=np.int64))


def logrank_loop(group_a, group_b):
    """logrank_test as it was before the shared risk table: observed,
    expected and variance summed one death time at a time. Returns
    (chi2, p, degenerate), p as the 1-dof chi-square tail."""
    from math import erfc, sqrt

    ta = np.asarray([o.time for o in group_a])
    ea = np.asarray([o.event for o in group_a])
    tb = np.asarray([o.time for o in group_b])
    eb = np.asarray([o.event for o in group_b])
    obs_a = exp_a = var = 0.0
    for t in np.unique(np.concatenate([ta[ea == 1], tb[eb == 1]])):
        na, nb = int(np.sum(ta >= t)), int(np.sum(tb >= t))
        da = int(np.sum((ta == t) & (ea == 1)))
        db = int(np.sum((tb == t) & (eb == 1)))
        n, d = na + nb, da + db
        obs_a += da
        exp_a += d * na / n
        if n > 1:
            var += d * (na / n) * (nb / n) * (n - d) / (n - 1)
    if var <= 0.0:
        return 0.0, 1.0, True
    chi2 = (obs_a - exp_a) ** 2 / var
    return chi2, erfc(sqrt(chi2 / 2.0)), False


def hazard_survival_loop(hazards):
    """hazard_output_from's survival and risk as they were before the
    cumulative-product node: S[t] = S[t-1] * (1 - h[t]) built bin by bin
    on the tape and joined. Returns (survival, risk) Tensors."""
    from survmamba.numerics import concat, reshape, tsum

    terms, running = [], None
    for t in range(hazards.shape[0]):
        keep = 1.0 - hazards[t]
        running = keep if running is None else running * keep
        terms.append(reshape(running, (1,)))
    survival = concat(terms, axis=0)
    return survival, -tsum(survival)
