"""Cross-modal fusion at two granularities, adaptive mixing, the
discrete hazard head, and the survival likelihood.

Fine fusion consumes the concatenated refined tokens of each modality,
segment-mean-pooled to a common length; coarse fusion consumes the
per-group token sequences, aligned to the shorter one. Both take a list
of patients: each patient is aligned on its own rows, all of them are
fused in one IFM call with one run per patient, and each patient's
output rows are mean-pooled to its own vector. The fused vectors
H_f and H_c are mixed by a learned gate alpha = sigmoid(raw), and a
linear-sigmoid head turns the mix into per-bin hazards, the survival
curve S[t] = prod_{k<=t}(1 - h[k]) as one cumulative-product node, and a
scalar risk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import IFMBlock
from .errors import ConfigError, ShapeError
from .numerics import (
    LinearLayer,
    Module,
    Runs,
    Tensor,
    cumprod,
    join_rows,
    log_clamped,
    segment_mean,
    sigmoid,
    split_rows,
    tmean,
    tsum,
)

PROB_FLOOR = 1e-12  # probabilities are clamped here before any log


def _segment_sizes(n: int, target: int) -> list:
    """Contiguous near-equal segments, longer segments first."""
    base, extra = divmod(n, target)
    return [base + 1] * extra + [base] * (target - extra)


def align_fine_tokens(tokens_a: Tensor, tokens_b: Tensor, length: int):
    """Segment-mean-pool two (L, D) token runs to a shared length; a run
    already at that length passes through unchanged."""
    la, lb = tokens_a.shape[0], tokens_b.shape[0]
    if la < 1 or lb < 1:
        raise ShapeError("align: both token runs must be non-empty")
    if length < 1:
        raise ConfigError(f"align: target length must be >= 1, got {length}")
    if length > min(la, lb):
        raise ConfigError(f"align: target {length} exceeds shortest run {min(la, lb)}")

    def pool(t: Tensor, n: int) -> Tensor:
        if n == length:
            return t
        return segment_mean(t, Runs.cached(tuple(_segment_sizes(n, length))))

    return pool(tokens_a, la), pool(tokens_b, lb)


def _fuse(pairs: list, ifm: IFMBlock) -> list:
    """Each patient's aligned (l, D) pair as one run, all patients joined
    in one IFM call; each patient's output rows mean-pooled."""
    lengths = [a.shape[0] for a, _ in pairs]
    out = ifm(join_rows([a for a, _ in pairs]), join_rows([b for _, b in pairs]), Runs.cached(tuple(lengths)))
    return [tmean(rows, axis=0) for rows in split_rows(out, lengths)]


def fuse_fine(tokens_a: list, tokens_b: list, ifm: IFMBlock, lengths: list) -> list:
    """Fuse each patient's fine-grained token runs, aligned to its length
    in `lengths`, into a single D-vector per patient."""
    return _fuse([align_fine_tokens(a, b, n) for a, b, n in zip(tokens_a, tokens_b, lengths)], ifm)


def fuse_coarse(groups_a: list, groups_b: list, ifm: IFMBlock) -> list:
    """Fuse each patient's (G, D) coarse sequences, aligned to the shorter
    one, into a single D-vector per patient."""
    return _fuse([align_fine_tokens(a, b, min(a.shape[0], b.shape[0])) for a, b in zip(groups_a, groups_b)],
                 ifm)


@dataclass
class FusedFeatures:
    """The two granularity-level fused vectors and their adaptive mix;
    all three share the token dimension."""

    fine: Tensor
    coarse: Tensor
    mixed: Tensor


class AlphaParam(Module):
    """Scalar gate in (0, 1) via sigmoid of a raw parameter."""

    def __init__(self, raw: float = 0.0):
        super().__init__()
        self.raw = Tensor(np.asarray(raw, dtype=np.float64), requires_grad=True)

    def value(self) -> Tensor:
        return sigmoid(self.raw)


def adaptive_fuse(h_fine: Tensor, h_coarse: Tensor, alpha: AlphaParam) -> Tensor:
    """Convex combination alpha * H_f + (1 - alpha) * H_c."""
    if h_fine.shape != h_coarse.shape:
        raise ShapeError(f"adaptive_fuse: {h_fine.shape} vs {h_coarse.shape}")
    a = alpha.value()
    return a * h_fine + (1.0 - a) * h_coarse


@dataclass
class HazardOutput:
    """Per-bin hazards in (0,1), survival S[t] = prod_{k<=t}(1 - h[k]),
    and risk = -sum_t S[t] (larger risk = earlier expected event)."""

    hazards: Tensor
    survival: Tensor
    risk: Tensor

    @property
    def n_bins(self) -> int:
        return self.hazards.shape[0]


def hazard_output_from(hazards: Tensor) -> HazardOutput:
    """The survival curve and risk of per-bin hazards."""
    survival = cumprod(1.0 - hazards)
    return HazardOutput(hazards=hazards, survival=survival, risk=-tsum(survival))


class HazardHead(Module):
    """Linear map to T_bins logits; sigmoid gives per-bin hazards."""

    def __init__(self, d_model: int, n_bins: int, rng):
        super().__init__()
        if n_bins < 2:
            raise ConfigError(f"hazard head: need at least 2 bins, got {n_bins}")
        self.lin = LinearLayer(d_model, n_bins, rng)

    def __call__(self, h: Tensor) -> HazardOutput:
        return hazard_output_from(sigmoid(self.lin(h)))


def survival_nll(out: HazardOutput, t_bin: int, censored: int) -> Tensor:
    """Discrete-time negative log likelihood for one subject.

    censored (c=1): -log S[t]. Observed event (c=0): -log S[t-1] - log h[t]
    with S[-1] = 1. Probabilities are clamped at 1e-12 before the log, so
    the loss is finite and non-negative for all inputs.
    """
    if not 0 <= t_bin < out.n_bins:
        raise ConfigError(f"survival_nll: t_bin {t_bin} outside [0, {out.n_bins})")
    if censored:
        return -log_clamped(out.survival[t_bin], PROB_FLOOR)
    ll = log_clamped(out.hazards[t_bin], PROB_FLOOR)
    if t_bin > 0:
        ll = ll + log_clamped(out.survival[t_bin - 1], PROB_FLOOR)
    return -ll
