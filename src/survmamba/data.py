"""Patient records, datasets, time-bin assignment and fold splitting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .hierarchy import GroupingConfig, HierarchicalBag
from .survstats import SurvivalOutcome

N_FOLDS = 5


@dataclass
class PatientRecord:
    """One subject: raw histology bag, raw gene expression vector,
    follow-up time (months), censoring flag (1 = censored) and the
    discrete time-bin index."""

    patient_id: str
    histology: HierarchicalBag
    genomics: np.ndarray
    time_months: float
    censored: int
    t_bin: int = -1

    @property
    def outcome(self) -> SurvivalOutcome:
        return SurvivalOutcome(time=self.time_months, event=1 - self.censored)


@dataclass
class SurvivalDataset:
    records: list
    grouping: GroupingConfig
    bin_edges: np.ndarray = field(default=None)
    folds: np.ndarray = field(default=None)

    def __len__(self):
        return len(self.records)

    def fold_records(self, fold: int, held_out: bool):
        if not 0 <= fold < N_FOLDS:
            raise ConfigError(f"fold must be in 0..{N_FOLDS - 1}, got {fold}")
        sel = self.folds == fold if held_out else self.folds != fold
        return [r for r, s in zip(self.records, sel) if s]

    @property
    def n_bins(self) -> int:
        return len(self.bin_edges) - 1


def assign_bins(times, events, t_bins: int):
    """Quantile bin edges over the uncensored times.

    Edges are (0, q_{1/T}, ..., q_{(T-1)/T}, +inf) with linearly
    interpolated quantiles; a time exactly on an edge falls in the lower
    bin (half-open intervals (edge_k, edge_{k+1}]). Tied times that make
    two edges equal raise ConfigError: the bin between them is unreachable.
    t_bins below 2, the hazard head's minimum, raises ConfigError.
    """
    if t_bins < 2:
        raise ConfigError(f"assign_bins: t_bins must be at least 2, the hazard head's minimum, got {t_bins}")
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.int64)
    observed = times[events == 1]
    if observed.size < t_bins:
        raise ConfigError(
            f"assign_bins: need at least {t_bins} uncensored records, got {observed.size}"
        )
    inner = [np.quantile(observed, k / t_bins) for k in range(1, t_bins)]
    edges = np.asarray([0.0, *inner, np.inf])
    tied = edges[1:][np.diff(edges) <= 0]
    if tied.size:
        raise ConfigError(f"assign_bins: tied uncensored times at {tied[0]:g} make two bin edges equal")
    bins = np.searchsorted(edges[1:], times, side="left")
    return edges, bins


def make_folds(n: int, k: int = N_FOLDS) -> np.ndarray:
    """Deterministic fold ids: record index mod k (disjoint, exhaustive,
    sizes balanced within one). Recomputable from manifest order alone."""
    return np.arange(n, dtype=np.int64) % k


def finalize_dataset(records, grouping, bin_edges=None, t_bins: int = 4) -> SurvivalDataset:
    """Attach bins and folds; computes bin edges when not supplied.
    Supplied edges must cover every patient's time: DataError names the
    first patient before the first edge or past the last."""
    times = [r.time_months for r in records]
    events = [1 - r.censored for r in records]
    if bin_edges is None:
        bin_edges, bins = assign_bins(times, events, t_bins)
    else:
        bin_edges = np.asarray(bin_edges, dtype=np.float64)
        early = np.flatnonzero(np.less(times, bin_edges[0]))
        if early.size:
            r = records[early[0]]
            raise DataError(f"patient {r.patient_id}: time_months {float(r.time_months)!r} lies before the "
                            f"first bin edge {float(bin_edges[0])!r}")
        bins = np.searchsorted(bin_edges[1:], times, side="left")
        late = np.flatnonzero(bins == len(bin_edges) - 1)
        if late.size:
            r = records[late[0]]
            raise DataError(f"patient {r.patient_id}: time_months {float(r.time_months)!r} lies past the "
                            f"last bin edge {float(bin_edges[-1])!r}")
    for r, b in zip(records, bins):
        r.t_bin = int(b)
    return SurvivalDataset(
        records=list(records),
        grouping=grouping,
        bin_edges=bin_edges,
        folds=make_folds(len(records)),
    )
