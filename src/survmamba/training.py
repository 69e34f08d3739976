"""Cross-validated training and held-out evaluation.

Training walks the four in-fold partitions patient by patient (batch
size 1) in a seeded shuffle order, so a fixed seed gives a bit-identical
loss trace. Evaluation scores the held-out fold patient by patient.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import SurvivalDataset
from .errors import ConfigError, NonFiniteError, UndefinedResultError
from .model import ModelConfig, SurvMambaModel
from .optim import RAdam
from .survstats import KmCurve, concordance_index, kaplan_meier, logrank_test, risk_stratify


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
        positive = (self.lr, self.weight_decay, self.batch_size, self.seed + 1,
                    self.d_model, self.resolved_e(), self.n_state, self.conv_width, self.t_bins,
                    self.genomics_hidden, self.align_len, self.depth)
        if any(v <= 0 for v in positive) or self.epochs < 0:
            raise ConfigError("train config: all values must be positive (epochs >= 0)")

    @classmethod
    def from_json(cls, path) -> "TrainConfig":
        """Load a flat JSON object of field values; absent fields keep
        their defaults."""
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: malformed JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: expected a JSON object of config fields")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"{path}: unknown config fields {unknown}")
        return cls(**doc)


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
    if not 0 <= fold < 5:
        raise ConfigError(f"fold must be in 0..4, got {fold}")
    model = build_model(dataset, cfg)
    records = dataset.fold_records(fold, held_out=False)
    optim = RAdam(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    shuffle_rng = np.random.default_rng(cfg.seed + 1)
    trace = []
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(len(records))
        total = 0.0
        pending = 0
        optim.zero_grad()
        for idx in order:
            rec = records[idx]
            loss = model.loss(rec)
            val = loss.item()
            if not math.isfinite(val):
                raise NonFiniteError(f"non-finite loss for patient {rec.patient_id}")
            total += val
            loss.backward()
            pending += 1
            if pending == cfg.batch_size:
                if cfg.batch_size > 1:
                    optim.grad /= cfg.batch_size
                optim.step()
                optim.zero_grad()
                pending = 0
        if pending:
            optim.grad /= pending
            optim.step()
            optim.zero_grad()
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
    km_high: KmCurve
    chi2: float
    p_value: float
    logrank_degenerate: bool


def evaluate(model: SurvMambaModel, dataset: SurvivalDataset, fold: int) -> EvalReport:
    """Held-out risks, concordance, median stratification, per-stratum
    Kaplan-Meier curves and the log-rank comparison."""
    records = dataset.fold_records(fold, held_out=True)
    if not records:
        raise ConfigError(f"fold {fold} has no held-out records")
    risks = np.asarray([model.predict_risk(r) for r in records])

    outcomes = [r.outcome for r in records]
    diagnostic = ""
    try:
        cidx = concordance_index(risks, outcomes)
    except UndefinedResultError as exc:
        cidx = None
        diagnostic = str(exc)

    labels = risk_stratify(risks)
    low = [o for o, lab in zip(outcomes, labels) if lab == "low"]
    high = [o for o, lab in zip(outcomes, labels) if lab == "high"]
    if low and high:
        lr = logrank_test(low, high)
        chi2, p, degen = lr.chi2, lr.p, lr.degenerate
        km_low, km_high = kaplan_meier(low), kaplan_meier(high)
    else:
        # all risks tied: a single stratum, nothing to compare
        chi2, p, degen = 0.0, 1.0, True
        km_low = kaplan_meier(low or [o for o in outcomes])
        km_high = km_low
        diagnostic = diagnostic or "median split produced a single stratum"
    return EvalReport(
        fold=fold,
        patient_ids=[r.patient_id for r in records],
        risks=risks,
        c_index=cidx,
        diagnostic=diagnostic,
        labels=labels,
        km_low=km_low,
        km_high=km_high,
        chi2=chi2,
        p_value=p,
        logrank_degenerate=degen,
    )
