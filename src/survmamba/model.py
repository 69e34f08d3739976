"""End-to-end survival model: per-modality encoders, dual-level
aggregation stacks, two fusion blocks, the adaptive gate and the hazard
head, all reachable through one parameter registry.

One scorer serves every entry point. It takes a list of patients and
runs each stage over all of them before the next: the encoders (the
genomics banks once, on a stack of expression vectors), `him_fine` and
`him_coarse` per modality, `fuse_fine`, `fuse_coarse`, then the adaptive
mix and the head. Alignment, segment means and the head work on each
patient's own rows. `predict_risks` walks a list of patients in slices
whose region and process counts fit ``JOIN_BYTES`` (rows x E x 8
bytes), so what it holds between stages does not grow with the list;
each coarse block makes one call per slice, and each fine block call
joins consecutive patients while their token rows fit the same budget.
`forward`, `loss` and `predict_risk` run the scorer on a group of one.

Parameter paths follow the attribute chain, e.g.
``him.image.fine.linear_x.weight``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .blocks import BiMambaBlock, IFMBlock
from .errors import ConfigError, DataError, NonFiniteError
from .fusion import (AlphaParam, FusedFeatures, HazardHead, HazardOutput,
                     adaptive_fuse, fuse_coarse, fuse_fine, survival_nll)
from .hierarchy import GenomicsEncoder, GroupingConfig, HistologyEncoder, him_coarse, him_fine
from .numerics import Module, Namespace, Runs, Tensor, join_rows, no_grad, split_rows
from .ssm import DISCRETIZE_MODES

# bytes per (rows, E) float64 array of a block call that joins several
# patients' runs: 1024 rows at E = 64, whose scan steps stay in L2
JOIN_BYTES = 512 << 10


@dataclass
class ModelConfig:
    """Architecture hyperparameters. Defaults follow the reference
    training setup (token dim 512 with doubled expansion); desk-scale
    runs override them. A size that is not a positive integer, or an
    unknown disc_mode, raises ConfigError at construction."""

    d_model: int = 512
    e_expand: int | None = None  # default 2 * d_model
    n_state: int = 16
    conv_width: int = 4
    t_bins: int = 4
    genomics_hidden: int = 64
    align_len: int = 256  # cap on the fused fine-grained sequence length
    disc_mode: str = "euler"
    depth: int = 1  # blocks per aggregation level

    def __post_init__(self):
        self._check("model config")

    def _check(self, where: str):
        """ConfigError, its message prefixed by where, for an architecture
        size that is not a positive integer or an unknown disc_mode."""
        sizes = ("d_model", "n_state", "conv_width", "t_bins", "genomics_hidden", "align_len", "depth") + (
            () if self.e_expand is None else ("e_expand",))
        self._check_numbers(where, sizes, integer=True)
        if self.disc_mode not in DISCRETIZE_MODES:
            raise ConfigError(f"{where}: disc_mode {self.disc_mode!r} is not one of {DISCRETIZE_MODES}")
        if any(getattr(self, name) <= 0 for name in sizes):
            raise ConfigError(f"{where}: all values must be positive")

    def _check_numbers(self, where: str, names, integer: bool):
        """ConfigError, prefixed by where, unless each named field is an
        integer (integer=True) or a finite real number; a bool is neither."""
        for name in names:
            v = getattr(self, name)
            if integer and (not isinstance(v, numbers.Integral) or isinstance(v, bool)):
                raise ConfigError(f"{where}: {name} {v!r} is not an integer")
            if not isinstance(v, numbers.Real) or isinstance(v, bool) or not math.isfinite(v):
                raise ConfigError(f"{where}: {name} {v!r} is not a finite number")

    def resolved_e(self) -> int:
        return self.e_expand if self.e_expand is not None else 2 * self.d_model


class _Stack(Module):
    """Sequential stack of blocks; a depth-1 stack keeps the block's own
    parameter names (matching the documented dotted paths)."""

    def __init__(self, blocks):
        super().__init__()
        self.blocks = list(blocks)
        if len(self.blocks) == 1:
            blk = self.blocks[0]
            self._children.update(blk._children)
            self._params.update(blk._params)
        else:
            for i, blk in enumerate(self.blocks):
                self._children[f"s{i}"] = blk


class SurvMambaModel(Module):
    def __init__(self, cfg: ModelConfig, grouping: GroupingConfig, d_raw: int, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        self.grouping = grouping
        self.d_raw = d_raw
        rng = np.random.default_rng(seed)
        d, e, n, w = cfg.d_model, cfg.resolved_e(), cfg.n_state, cfg.conv_width

        self.enc = Namespace()
        self.enc.histology = HistologyEncoder(d_raw, d, rng)
        self.enc.genomics = GenomicsEncoder(grouping, d, cfg.genomics_hidden, rng)

        def stack():
            return _Stack(
                BiMambaBlock(d, e, n, w, rng=rng, disc_mode=cfg.disc_mode)
                for _ in range(cfg.depth)
            )

        self.him = Namespace()
        self.him.image = Namespace()
        self.him.image.fine = stack()
        self.him.image.coarse = stack()
        self.him.genomics = Namespace()
        self.him.genomics.fine = stack()
        self.him.genomics.coarse = stack()

        self.ifm = Namespace()
        self.ifm.fine = IFMBlock(d, e, n, w, rng=rng, disc_mode=cfg.disc_mode)
        self.ifm.coarse = IFMBlock(d, e, n, w, rng=rng, disc_mode=cfg.disc_mode)

        self.fusion_alpha = AlphaParam(0.0)
        self.head = HazardHead(d, cfg.t_bins, rng)

        names = [n for n, _ in self.named_parameters()]
        if len(names) != len(set(names)):
            raise ConfigError("duplicate parameter names in registry")

    def _groups(self, rows: list) -> list:
        """Slices of consecutive patients whose rows fit one block call:
        rows x E x 8 bytes within ``JOIN_BYTES``. A patient over the
        budget on its own is a slice of its own."""
        cap = JOIN_BYTES // (8 * self.cfg.resolved_e())
        groups, lo, total = [], 0, 0
        for i, r in enumerate(rows):
            if i > lo and total + r > cap:
                groups.append(slice(lo, i))
                lo, total = i, 0
            total += r
        return groups + [slice(lo, len(rows))] if rows else groups

    def _him(self, tokens: list, runs: list, stacks) -> tuple:
        """One modality's fine and coarse stacks over each patient's (L, D)
        tokens and runs: a fine block call joins patients while their rows
        fit the budget, a coarse one takes them all. Returns each patient's
        refined tokens and pooled group sequence."""
        for blk in stacks.fine.blocks:
            refined = []
            for g in self._groups([r.rows for r in runs]):
                out = him_fine(join_rows(tokens[g]), blk, Runs.join(runs[g]))
                refined += split_rows(out, [r.rows for r in runs[g]])
            tokens = refined
        first, *rest = stacks.coarse.blocks
        pooled = Runs.cached(tuple(len(r) for r in runs))
        seq = him_coarse(join_rows(tokens), first, Runs.join(runs), pooled)
        for blk in rest:
            seq = blk(seq, pooled)
        return tokens, split_rows(seq, pooled.sizes)

    def _fused(self, records: list) -> list:
        """FusedFeatures of each record, stage by stage: the encoders, then
        `him_fine`, `him_coarse`, `fuse_fine` and `fuse_coarse`, each over
        all the records before the next, and the adaptive mix. The coarse
        stages make one call per block over all the records, which
        `predict_risks` has sliced to fit the row budget."""
        for r in records:
            if r.histology.token_dim != self.d_raw:
                raise DataError(f"patient {r.patient_id}: histology tokens have dim {r.histology.token_dim}, "
                                f"the model expects {self.d_raw}")
        img = [self.enc.histology(r.histology) for r in records]
        gen, gen_runs = self.enc.genomics([r.genomics for r in records])
        img_tokens, img_coarse = self._him([t for t, _ in img], [r for _, r in img], self.him.image)
        gen_tokens, gen_coarse = self._him(split_rows(gen, [gen_runs.rows] * len(records)),
                                           [gen_runs] * len(records), self.him.genomics)
        lengths = [min(a.shape[0], b.shape[0], self.cfg.align_len) for a, b in zip(img_tokens, gen_tokens)]
        h_fine = [h for g in self._groups(lengths)
                  for h in fuse_fine(img_tokens[g], gen_tokens[g], self.ifm.fine, lengths[g])]
        h_coarse = fuse_coarse(img_coarse, gen_coarse, self.ifm.coarse)
        return [FusedFeatures(fine=f, coarse=c, mixed=adaptive_fuse(f, c, self.fusion_alpha))
                for f, c in zip(h_fine, h_coarse)]

    def fuse_features(self, record) -> FusedFeatures:
        """Encoders -> dual-level aggregation -> both fusion levels ->
        adaptive mix, for one patient."""
        return self._fused([record])[0]

    def forward(self, record) -> HazardOutput:
        """Full pass over one patient record, returning the hazard output."""
        return self.head(self.fuse_features(record).mixed)

    def loss(self, record) -> Tensor:
        return survival_nll(self.forward(record), record.t_bin, record.censored)

    def predict_risk(self, record) -> float:
        return float(self.predict_risks([record])[0])

    def predict_risks(self, records: list) -> np.ndarray:
        """Risk of each record, without recording a tape. The records are
        walked in slices of as many consecutive patients as the row budget
        admits at the coarse level (the larger of a patient's region and
        process counts), and each slice is scored stage by stage; the head
        runs on each patient's own mixed vector. A non-finite risk raises
        NonFiniteError naming the first such patient, with numpy's overflow
        warnings silenced."""
        n_proc = len(self.grouping.processes)
        risks = []
        with no_grad(), np.errstate(over="ignore", invalid="ignore"):
            for sl in self._groups([max(r.histology.n_groups, n_proc) for r in records]):
                risks += [self.head(f.mixed).risk.item() for f in self._fused(records[sl])]
        risks = np.asarray(risks, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(risks))
        if bad.size:
            raise NonFiniteError(f"non-finite risk {risks[bad[0]]} for patient {records[bad[0]].patient_id}")
        return risks


# -- complexity reporting -----------------------------------------------------
#
# Parameter counts come from exact enumeration of the registry. FLOPs use
# closed forms per op (one multiply-accumulate = 2 flops), for a reference
# input of R regions x P patches per region and the model's own genomics
# catalog:
#   linear (T tokens, i -> o):  2*T*i*o + T*o
#   depthwise conv (T, E, W):   2*T*E*W + T*E
#   layer norm (T, D):          5*T*D
#   silu / sigmoid / softplus:  4 per element
#   discretize (T, E, N):       4*T*E*N   (exp + scale for Abar and Bbar, both
#                                          formed per slab inside the scan)
#   scan (T, E, N):             5*T*E*N   (3 for the state update, 2 for y)
#   gates + sum (T, E):         3*T*E


def _linear_flops(t, i, o):
    return 2 * t * i * o + t * o


def _branch_flops(t, e, n, w):
    """One ScanBranch: conv, SiLU, B/C/delta projections, softplus,
    discretize and scan."""
    return (2 * t * e * w + t * e + 4 * t * e + 2 * _linear_flops(t, e, n)
            + _linear_flops(t, e, e) + 4 * t * e + 4 * t * e * n + 5 * t * e * n)


def _bimamba_flops(t, d, e, n, w):
    """Norm, x/z projections, SiLU(z), a branch per direction, gating per
    direction, direction sum, output projection, residual."""
    return (5 * t * d + 2 * _linear_flops(t, d, e) + 4 * t * e + 2 * _branch_flops(t, e, n, w)
            + 2 * t * e + t * e + _linear_flops(t, e, d) + t * d)


def _ifm_flops(t, d, e, n, w):
    """Per modality: norm, in-projection, branch, z projection + SiLU,
    cross gate; then the output projection."""
    per_mod = (5 * t * d + _linear_flops(t, d, e) + _branch_flops(t, e, n, w)
               + _linear_flops(t, d, e) + 4 * t * e + t * e)
    return 2 * per_mod + _linear_flops(t, 2 * e, d)


def report_complexity(model: SurvMambaModel, regions: int = 4, patches_per_region: int = 16) -> dict:
    """Exact parameter count plus a closed-form FLOPs estimate for one
    forward pass at the reference input size."""
    cfg = model.cfg
    d, e, n, w = cfg.d_model, cfg.resolved_e(), cfg.n_state, cfg.conv_width
    n_patch = regions * patches_per_region
    functions = model.grouping.functions
    n_fn = len(functions)
    n_proc = len(model.grouping.processes)

    enc = _linear_flops(n_patch, model.d_raw, d)
    for _, genes in functions:
        enc += _linear_flops(1, len(genes), cfg.genomics_hidden) + 4 * cfg.genomics_hidden
        enc += _linear_flops(1, cfg.genomics_hidden, d)

    him = cfg.depth * (_bimamba_flops(n_patch, d, e, n, w) + _bimamba_flops(regions, d, e, n, w))
    him += cfg.depth * (_bimamba_flops(n_fn, d, e, n, w) + _bimamba_flops(n_proc, d, e, n, w))

    l_fine = min(n_patch, n_fn, cfg.align_len)
    l_coarse = min(regions, n_proc)
    ifm = _ifm_flops(l_fine, d, e, n, w) + _ifm_flops(l_coarse, d, e, n, w)

    scan_total = cfg.depth * 5 * n * e * 2 * (n_patch + regions + n_fn + n_proc)
    scan_total += 5 * n * e * 2 * (l_fine + l_coarse)

    head = _linear_flops(1, d, cfg.t_bins) + 4 * cfg.t_bins + 3 * cfg.t_bins
    total = enc + him + ifm + head + 3 * d  # + adaptive mix

    return {
        "param_count": model.param_count(),
        "flops_estimate": int(total),
        "breakdown": {
            "encoders": int(enc),
            "him": int(him),
            "ifm": int(ifm),
            "scan": int(scan_total),
            "head": int(head),
        },
    }
