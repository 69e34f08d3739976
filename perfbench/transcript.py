"""Straight-line numpy transcription of the SurvMamba forward pass.

It reads nothing from the program but a flat {dotted name: array} map of
parameters and the documented architecture (README, module docstrings),
so it is a second route to the same risks and losses. It covers the
configurations the benchmark runs: depth 1, mean pooling and Euler
discretization.
"""

from __future__ import annotations

import numpy as np

LN_EPS = 1e-5
PROB_FLOOR = 1e-12


def sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def silu(x):
    return x * sigmoid(x)


def softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def layer_norm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gamma + beta


def affine(p, prefix, x):
    return x @ p[prefix + ".weight"] + p[prefix + ".bias"]


def scan_branch(p, prefix, x):
    """Causal depthwise conv, SiLU, B/C/delta projections, Euler
    discretization and the recurrence, for one (M, E) sequence."""
    kern = p[prefix + ".conv_kernel"]
    m, e = x.shape
    w = kern.shape[1]
    padded = np.vstack([np.zeros((w - 1, e)), x])
    conv = p[prefix + ".conv_bias"] + sum(kern[:, k] * padded[k : k + m] for k in range(w))
    xs = silu(conv)
    b = affine(p, prefix + ".linear_b", xs)
    c = affine(p, prefix + ".linear_c", xs)
    delta = softplus(xs @ p[prefix + ".linear_delta"] + p[prefix + ".delta_bias"])
    a = -np.exp(p[prefix + ".a_log"])
    h = np.zeros_like(a)
    y = np.empty((m, e))
    for t in range(m):
        h = np.exp(delta[t][:, None] * a) * h + (delta[t][:, None] * b[t][None, :]) * xs[t][:, None]
        y[t] = h @ c[t]
    return y


def bimamba(p, prefix, tokens):
    """Bidirectional block on one (M, D) sequence, residual included."""
    normed = layer_norm(tokens, p[prefix + ".norm.gamma"], p[prefix + ".norm.beta"])
    x = affine(p, prefix + ".linear_x", normed)
    gate = silu(affine(p, prefix + ".linear_z", normed))
    y_f = scan_branch(p, prefix + ".fwd", x)
    y_b = scan_branch(p, prefix + ".bwd", x[::-1])[::-1]
    return affine(p, prefix + ".linear_out", y_f * gate + y_b * gate) + tokens


def ifm(p, prefix, a, b):
    """Cross-gated fusion of two equal-shape (L, D) sequences."""
    n1 = layer_norm(a, p[prefix + ".m1.norm.gamma"], p[prefix + ".m1.norm.beta"])
    n2 = layer_norm(b, p[prefix + ".m2.norm.gamma"], p[prefix + ".m2.norm.beta"])
    y1 = scan_branch(p, prefix + ".m1.branch", affine(p, prefix + ".m1.in_proj", n1))
    y2 = scan_branch(p, prefix + ".m2.branch", affine(p, prefix + ".m2.in_proj", n2))
    z1 = silu(affine(p, prefix + ".linear_z", n1))
    z2 = silu(affine(p, prefix + ".linear_z", n2))
    return affine(p, prefix + ".linear_out", np.concatenate([y1 * z2, y2 * z1], axis=-1))


def segment_pool(tokens, length):
    """Contiguous near-equal segments, longer ones first, each averaged."""
    n = tokens.shape[0]
    if n == length:
        return tokens
    base, extra = divmod(n, length)
    sizes = [base + 1] * extra + [base] * (length - extra)
    bounds = np.cumsum([0] + sizes)
    return np.stack([tokens[lo:hi].mean(axis=0) for lo, hi in zip(bounds[:-1], bounds[1:])])


def genomics_groups(p, processes, functions, expr):
    """Per-function two-layer MLPs; a function's row in its bank is its
    rank among the catalog's functions of the same gene count."""
    row_of = {}
    seen: dict = {}
    for fid, genes in functions:
        w = len(genes)
        row_of[fid] = (w, seen.get(w, 0), genes)
        seen[w] = seen.get(w, 0) + 1
    tokens = {}
    for fid, (w, r, genes) in row_of.items():
        bank = f"enc.genomics.banks.genes{w}"
        hid = silu(expr[np.asarray(genes)] @ p[bank + ".w1"][r] + p[bank + ".b1"][r])
        tokens[fid] = hid @ p[bank + ".w2"][r] + p[bank + ".b2"][r]
    return [np.stack([tokens[f] for f in fids]) for _, fids in processes]


def him(p, prefix, groups):
    """Shared fine block per group, mean pool, coarse block over groups."""
    refined = [bimamba(p, prefix + ".fine", g) for g in groups]
    coarse = bimamba(p, prefix + ".coarse", np.stack([g.mean(axis=0) for g in refined]))
    return np.concatenate(refined), coarse


def hazards(p, hist_groups, processes, functions, expr, align_len):
    """Per-bin hazards for one patient: hist_groups is a list of raw
    (K_g, D_raw) patch arrays, expr the gene-expression vector."""
    flat = np.concatenate(hist_groups) @ p["enc.histology.proj.weight"] + p["enc.histology.proj.bias"]
    img_groups = np.split(flat, np.cumsum([g.shape[0] for g in hist_groups])[:-1])
    img_fine, img_coarse = him(p, "him.image", img_groups)
    gen_fine, gen_coarse = him(p, "him.genomics", genomics_groups(p, processes, functions, expr))
    length = min(img_fine.shape[0], gen_fine.shape[0], align_len)
    h_fine = ifm(p, "ifm.fine", segment_pool(img_fine, length), segment_pool(gen_fine, length)).mean(axis=0)
    g = min(img_coarse.shape[0], gen_coarse.shape[0])
    h_coarse = ifm(p, "ifm.coarse", segment_pool(img_coarse, g), segment_pool(gen_coarse, g)).mean(axis=0)
    alpha = sigmoid(p["fusion_alpha.raw"])
    mixed = alpha * h_fine + (1.0 - alpha) * h_coarse
    return sigmoid(affine(p, "head.lin", mixed))


def risk(haz):
    """Risk = minus the sum of the survival curve S[t] = prod_{k<=t}(1 - h[k])."""
    return -float(np.cumprod(1.0 - haz).sum())


def nll(haz, t_bin, censored):
    """Discrete-time negative log likelihood with probabilities floored."""
    surv = np.cumprod(1.0 - haz)
    if censored:
        return -float(np.log(max(surv[t_bin], PROB_FLOOR)))
    ll = np.log(max(haz[t_bin], PROB_FLOOR))
    if t_bin > 0:
        ll += np.log(max(surv[t_bin - 1], PROB_FLOOR))
    return -float(ll)
