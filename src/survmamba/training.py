"""Cross-validated training and held-out evaluation.

Training walks the four in-fold partitions patient by patient (batch
size 1) in a seeded shuffle order, so a fixed seed gives a bit-identical
loss trace. Evaluation scores the held-out fold through the model's
stage-by-stage scorer (`SurvMambaModel.predict_risks`), whose block calls
each join as many consecutive patients as fit one row budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset
from .dataio import read_config
from .errors import ConfigError, NonFiniteError, UndefinedResultError
from .model import ModelConfig, SurvMambaModel
from .optim import RAdam
from .survstats import (KmCurve, LogrankResult, concordance_index, kaplan_meier, logrank_test,
                        risk_stratify)


@dataclass
class TrainConfig(ModelConfig):
    """ModelConfig's architecture fields plus the optimizer fields; defaults
    are the reference setup (lr 2e-4, weight decay 5e-3, batch size 1)."""

    lr: float = 2e-4
    weight_decay: float = 5e-3
    batch_size: int = 1
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        self._check("train config")
        self._check_numbers("train config", ("batch_size", "epochs", "seed"), integer=True)
        self._check_numbers("train config", ("lr", "weight_decay"), integer=False)
        if min(self.lr, self.weight_decay, self.batch_size, self.seed + 1) <= 0 or self.epochs < 0:
            raise ConfigError("train config: all values must be positive (epochs >= 0)")

    @classmethod
    def from_json(cls, path) -> "TrainConfig":
        """Load a flat JSON object of field values; absent fields keep
        their defaults."""
        return read_config(cls, path)


def build_model(dataset: SurvivalDataset, cfg: TrainConfig) -> SurvMambaModel:
    if dataset.n_bins != cfg.t_bins:
        raise ConfigError(
            f"dataset has {dataset.n_bins} time bins but config asks for {cfg.t_bins}"
        )
    d_raw = dataset.records[0].histology.token_dim
    return SurvMambaModel(cfg, dataset.grouping, d_raw, seed=cfg.seed)


def train(dataset: SurvivalDataset, fold: int, cfg: TrainConfig):
    """Train on the out-of-fold records; returns (model, per-epoch mean
    loss trace). Deterministic for a fixed config."""
    records = dataset.fold_records(fold, held_out=False)
    model = build_model(dataset, cfg)
    optim = RAdam(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    shuffle_rng = np.random.default_rng(cfg.seed + 1)
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss raises below
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(len(records))
            total = 0.0
            pending = 0
            for k, idx in enumerate(order, start=1):
                rec = records[idx]
                loss = model.loss(rec)
                val = loss.item()
                if not math.isfinite(val):
                    raise NonFiniteError(f"non-finite loss for patient {rec.patient_id}")
                total += val
                if pending == 0:  # the batch's first backward
                    optim.zero_grad()
                loss.backward()
                pending += 1
                if pending == cfg.batch_size or k == len(order):  # a full batch, or the epoch's last
                    if pending > 1:
                        optim.grad /= pending
                    optim.step()
                    pending = 0
            trace.append(total / max(1, len(records)))
    model.zero_grad()  # drop the views into the optimizer's gradient buffer
    return model, trace


@dataclass
class EvalReport:
    fold: int
    patient_ids: list
    risks: np.ndarray
    c_index: float | None
    diagnostic: str
    labels: list
    km_low: KmCurve
    km_high: KmCurve | None  # None when every risk fell in the low stratum
    chi2: float
    p_value: float
    logrank_degenerate: bool


def compare_strata(risks, outcomes):
    """Median-split the risks into 'low' and 'high' strata. Returns the
    labels, a (name, Kaplan-Meier curve) pair per non-empty stratum (low
    first) and the log-rank result, which is the degenerate chi2 0, p 1
    when all risks fall in one stratum."""
    labels = risk_stratify(risks)
    groups = [(name, [o for o, lab in zip(outcomes, labels) if lab == name]) for name in ("low", "high")]
    curves = [(name, kaplan_meier(grp)) for name, grp in groups if grp]
    lr = logrank_test(groups[0][1], groups[1][1]) if len(curves) == 2 else LogrankResult(0.0, 1.0, True)
    return labels, curves, lr


def evaluate(model: SurvMambaModel, dataset: SurvivalDataset, fold: int) -> EvalReport:
    """Held-out risks, concordance, median stratification, per-stratum
    Kaplan-Meier curves and the log-rank comparison. The fold is scored in
    one `model.predict_risks(records)` call; a non-finite risk raises
    NonFiniteError naming the fold and the first such patient."""
    records = dataset.fold_records(fold, held_out=True)
    if len(records) < 2:
        raise ConfigError(f"fold {fold} has {len(records)} held-out records; the median split needs 2")
    try:
        risks = model.predict_risks(records)
    except NonFiniteError as exc:
        raise NonFiniteError(f"evaluate: fold {fold}: {exc}") from None

    outcomes = [r.outcome for r in records]
    diagnostic = ""
    try:
        cidx = concordance_index(risks, outcomes)
    except UndefinedResultError as exc:
        cidx = None
        diagnostic = str(exc)

    labels, curves, lr = compare_strata(risks, outcomes)
    if len(curves) == 1:  # all risks tied: a single stratum, nothing to compare
        diagnostic = diagnostic or "median split produced a single stratum"
    return EvalReport(
        fold=fold,
        patient_ids=[r.patient_id for r in records],
        risks=risks,
        c_index=cidx,
        diagnostic=diagnostic,
        labels=labels,
        km_low=curves[0][1],
        km_high=dict(curves).get("high"),
        chi2=lr.chi2,
        p_value=lr.p,
        logrank_degenerate=lr.degenerate,
    )
