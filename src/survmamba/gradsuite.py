"""Finite-difference verification suite shared by the gradcheck CLI and
the acceptance tests.

Each check builds a small, well-conditioned instance (fixed seeds;
timescale biases shifted up so state-evolution parameters carry healthy
gradients - near-zero gradients cannot be resolved against the floored
relative-error denominator at float64), runs grad_check over every
parameter entry, and reports the worst relative error with its bound.
"""

from __future__ import annotations

import numpy as np

from .blocks import BiMambaBlock, IFMBlock
from .data import PatientRecord, finalize_dataset
from .fusion import survival_nll
from .hierarchy import HierarchicalBag, him_coarse, him_fine, make_grouping
from .model import ModelConfig, SurvMambaModel
from .numerics import (
    Runs,
    Tensor,
    _layer_norm,
    _layer_norm_grads,
    _node,
    cumprod,
    grad_check,
    linear,
    log_clamped,
    reshape,
    sigmoid,
    silu,
    stacked_linear,
    tmean,
    tsum,
)
from .ssm import discretize, selective_scan_recurrent

PRIMITIVE_BOUND = 1e-6
SCAN_BOUND = 1e-5
BLOCK_BOUND = 1e-5
PIPELINE_BOUND = 1e-4


def _perturb(module, seed: int, scale: float = 0.5):
    rng = np.random.default_rng(seed)
    for _, p in module.named_parameters():
        p.data += rng.normal(scale=scale, size=p.shape)


def _layer_norm_node(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """The blocks' layer norm, ``numerics._layer_norm`` and its gradients,
    as a tape node of its own, for the check."""
    out, xhat, inv = _layer_norm(x.data, gamma.data, beta.data, 1e-5)

    def backward(g):
        for p, grad in zip((x, gamma, beta), _layer_norm_grads(g, gamma.data, xhat, inv, True)):
            p._accum(grad)

    return _node(out, (x, gamma, beta), backward)


def check_primitives() -> list:
    rng = np.random.default_rng(11)
    out = []

    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    out.append((
        "primitive.linear",
        grad_check(lambda: tsum(silu(linear(x, w, b))), [("x", x), ("w", w), ("b", b)], h=1e-6),
        PRIMITIVE_BOUND,
    ))

    xs = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    out.append(("primitive.silu", grad_check(lambda: tsum(silu(xs)), [("x", xs)], h=1e-6), PRIMITIVE_BOUND))

    xn = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    gam = Tensor(rng.normal(size=5), requires_grad=True)
    bet = Tensor(rng.normal(size=5), requires_grad=True)
    out.append((
        "primitive.layer_norm",
        grad_check(lambda: tsum(silu(_layer_norm_node(xn, gam, bet))), [("x", xn), ("g", gam), ("b", bet)], h=1e-6),
        PRIMITIVE_BOUND,
    ))

    xq = Tensor(rng.uniform(0.2, 1.5, size=(2, 5)), requires_grad=True)
    xq.data[0, 2] = 0.0  # a zero factor, as a hazard of exactly 1 gives
    out.append(("primitive.cumprod", grad_check(lambda: tsum(silu(cumprod(xq))), [("x", xq)], h=1e-6),
                PRIMITIVE_BOUND))

    xk = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)  # a stack of 2 over 3 maps
    wk = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    bk = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    out.append((
        "primitive.stacked_linear",
        grad_check(lambda: tsum(silu(stacked_linear(xk, wk, bk))), [("x", xk), ("w", wk), ("b", bk)], h=1e-6),
        PRIMITIVE_BOUND,
    ))

    # the head's ops: sigmoid hazards, the clamped log, a negated pick
    # (a repeated index gathers its row twice) and a reshape
    xh = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    pick = np.array([0, 2, 2])
    out.append((
        "primitive.head_ops",
        grad_check(lambda: tsum(-log_clamped(sigmoid(reshape(xh, (3, 2))))[pick]), [("x", xh)], h=1e-6),
        PRIMITIVE_BOUND,
    ))
    return out


def check_scan() -> list:
    rng = np.random.default_rng(0)
    b, m, e, n = 2, 9, 3, 4
    runs = Runs.cached((m,) * b)
    a = Tensor(-np.exp(rng.normal(size=(e, n))), requires_grad=True)
    delta = Tensor(rng.uniform(0.05, 0.6, size=(b * m, e)), requires_grad=True)
    bp = Tensor(rng.normal(size=(b * m, n)), requires_grad=True)
    cp = Tensor(rng.normal(size=(b * m, n)), requires_grad=True)
    x = Tensor(rng.normal(size=(b * m, e)), requires_grad=True)
    results = []
    for mode in ("euler", "zoh"):
        def f(mode=mode):
            dp = discretize(delta, a, bp, mode, runs=runs)
            return tsum(silu(selective_scan_recurrent(x, dp, cp)))

        err = grad_check(
            f, [("A", a), ("delta", delta), ("B", bp), ("C", cp), ("x", x)], h=1e-6
        )
        results.append((f"ssm.scan.{mode}", err, SCAN_BOUND))
    return results


def _conditioned_bimamba(seed_block: int, seed_noise: int, shift: float = 1.5) -> BiMambaBlock:
    blk = BiMambaBlock(3, 4, 2, 2, rng=np.random.default_rng(seed_block))
    _perturb(blk, seed_noise)
    blk.fwd.delta_bias.data += shift
    blk.bwd.delta_bias.data += shift
    return blk


def _conditioned_ifm(seed_block: int, seed_noise: int) -> IFMBlock:
    ifm = IFMBlock(3, 4, 2, 2, rng=np.random.default_rng(seed_block))
    _perturb(ifm, seed_noise)
    ifm.m1.branch.delta_bias.data += 1.5
    ifm.m2.branch.delta_bias.data += 1.5
    return ifm


def check_blocks() -> list:
    runs = Runs.cached((5,))
    blk = _conditioned_bimamba(1, 201)
    tin = Tensor(np.random.default_rng(201).normal(size=(5, 3)))
    err_b = grad_check(lambda: tmean(silu(blk(tin, runs))), list(blk.named_parameters()), h=2e-5)

    ifm = _conditioned_ifm(4, 304)
    rng = np.random.default_rng(304)
    ta = Tensor(rng.normal(size=(5, 3)))
    tb = Tensor(rng.normal(size=(5, 3)))
    err_i = grad_check(lambda: tmean(silu(ifm(ta, tb, runs))), list(ifm.named_parameters()), h=2e-5)
    return [("blocks.bi_mamba", err_b, BLOCK_BOUND), ("blocks.ifm", err_i, BLOCK_BOUND)]


def check_him() -> list:
    fine = BiMambaBlock(3, 4, 2, 2, rng=np.random.default_rng(40))
    coarse = BiMambaBlock(3, 4, 2, 2, rng=np.random.default_rng(338))
    prng = np.random.default_rng(248)
    for blk in (fine, coarse):  # one noise stream across both blocks
        for _, p in blk.named_parameters():
            p.data += prng.normal(scale=0.5, size=p.shape)
        blk.fwd.delta_bias.data += 2.0
        blk.bwd.delta_bias.data += 2.0
    tokens = Tensor(np.random.default_rng(250).normal(size=(9, 3)))
    runs = Runs([5, 4])

    def f():
        # loss reads both paths: the pooled coarse tokens and the
        # refined fine tokens
        refined = him_fine(tokens, fine, runs)
        pooled = him_coarse(refined, coarse, runs)
        return tmean(silu(pooled)) + 0.1 * tsum(silu(refined))

    params = [(f"fine.{n}", p) for n, p in fine.named_parameters()]
    params += [(f"coarse.{n}", p) for n, p in coarse.named_parameters()]
    return [("hierarchy.him", grad_check(f, params, h=3e-5), BLOCK_BOUND)]


def _toy_dataset():
    rng = np.random.default_rng(40)
    grouping = make_grouping(n_processes=2, functions_per_process=2, genes_per_function=2)

    def record(pid, time, censored):
        groups = [
            ("R000", rng.normal(size=(4, 3))),
            ("R001", rng.normal(size=(3, 3))),
        ]
        return PatientRecord(
            patient_id=pid,
            histology=HierarchicalBag("histology", groups),
            genomics=rng.normal(size=8),
            time_months=time,
            censored=censored,
        )

    records = [record("P0000", 5.0, 0), record("P0001", 20.0, 1)]
    return finalize_dataset(records, grouping, bin_edges=[0.0, 10.0, np.inf])


def toy_pipeline_model():
    dataset = _toy_dataset()
    cfg = ModelConfig(
        d_model=3, e_expand=4, n_state=2, conv_width=2, t_bins=2,
        genomics_hidden=3, align_len=8, depth=1,
    )
    model = SurvMambaModel(cfg, dataset.grouping, d_raw=3, seed=14)
    _perturb(model, 510, scale=0.5)
    for name, p in model.named_parameters():
        if name.endswith(".delta_bias"):  # every scan branch's timescale bias
            p.data += 0.5
    return model, dataset


def check_pipeline() -> list:
    model, dataset = toy_pipeline_model()

    def f():
        total = None
        for rec in dataset.records:
            loss = survival_nll(model.forward(rec), rec.t_bin, rec.censored)
            total = loss if total is None else total + loss
        return total

    err = grad_check(f, list(model.named_parameters()), h=1e-3)
    return [("pipeline.full", err, PIPELINE_BOUND)]


_SUITES = {
    "numerics": check_primitives,
    "ssm": check_scan,
    "blocks": check_blocks,
    "hierarchy": check_him,
    "pipeline": check_pipeline,
}


def run_grad_checks(which: str = "all") -> list:
    """Run the named suite (or all); returns [(name, worst_err, bound)]."""
    suites = _SUITES.values() if which == "all" else [_SUITES[which]]
    results = []
    for suite in suites:
        results.extend(suite())
    return results
