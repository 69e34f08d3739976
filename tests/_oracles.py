"""Independent oracle implementations used by the tests.

Everything here is deliberately plain numpy, written as straight-line
transcriptions with explicit loops, sharing no code paths with the
library. The point is a second, dumber route to the same numbers.
"""

import numpy as np


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
    y_f = _branch(x, block.fwd, block.fwd.disc_mode)
    y_b = _branch(x[:, ::-1], block.bwd, block.bwd.disc_mode)[:, ::-1]
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
    y1 = _branch(x1, block.m1.branch, block.m1.branch.disc_mode)
    y2 = _branch(x2, block.m2.branch, block.m2.branch.disc_mode)
    z1 = silu(n1 @ block.linear_z.weight.data + block.linear_z.bias.data)
    z2 = silu(n2 @ block.linear_z.weight.data + block.linear_z.bias.data)
    cat = np.concatenate([y1 * z2, y2 * z1], axis=-1)
    return cat @ block.linear_out.weight.data + block.linear_out.bias.data


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
