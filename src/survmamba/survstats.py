"""Evaluation statistics for right-censored survival data: concordance
index (Harrell's convention), Kaplan-Meier product-limit curves, the
two-group log-rank test with its 1-dof chi-square tail, and median risk
stratification.

Conventions, fixed so tests are exact: at a tied time, deaths are
processed before censorings (censored subjects at t are still at risk at
t); comparable c-index pairs require the earlier subject's event to be
observed; tied risks count 1/2. Kaplan-Meier and log-rank read the same
risk table: the number at risk and the deaths at each distinct death
time. Malformed input, a non-finite risk included, raises DataError
naming the bad value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, UndefinedResultError


@dataclass(frozen=True)
class SurvivalOutcome:
    """Observed follow-up: time in months (> 0) and event flag
    (1 = death observed, 0 = censored)."""

    time: float
    event: int

    def __post_init__(self):
        if not self.time > 0:
            raise DataError(f"outcome time must be positive, got {self.time}")
        if self.event not in (0, 1):
            raise DataError(f"event flag must be 0 or 1, got {self.event}")


def _arrays(outcomes) -> tuple:
    """The outcomes' times (float64) and event flags (int64)."""
    times = np.asarray([o.time for o in outcomes], dtype=np.float64)
    return times, np.asarray([o.event for o in outcomes], dtype=np.int64)


def _risk_table(times: np.ndarray, events: np.ndarray, at: np.ndarray) -> tuple:
    """The number at risk (time >= t, so a subject censored at t is still
    at risk at t) and the deaths (an observed event at exactly t) at each
    time t of `at`, as two int64 arrays."""
    deaths = np.sort(times[events == 1])
    at_risk = times.size - np.searchsorted(np.sort(times), at, side="left")
    return at_risk, np.searchsorted(deaths, at, side="right") - np.searchsorted(deaths, at, side="left")


def _check_finite(where: str, risks: np.ndarray):
    bad = np.flatnonzero(~np.isfinite(risks))
    if bad.size:
        raise DataError(f"{where}: risk {risks.flat[bad[0]]} at index {bad[0]} is not finite")


def concordance_index(risks, outcomes) -> float:
    """Fraction of comparable pairs ordered correctly by risk.

    A pair (i, j) is comparable iff time_i < time_j and subject i's event
    was observed. Concordant (risk_i > risk_j) counts 1, tied risks count
    1/2. Raises UndefinedResultError when no pair is comparable.
    """
    risks = np.asarray(risks, dtype=np.float64)
    times, events = _arrays(outcomes)
    if risks.shape != times.shape:
        raise DataError(f"concordance_index: risks of shape {risks.shape} for {times.shape[0]} outcomes")
    _check_finite("concordance_index", risks)
    concordant = 0.0
    comparable = 0
    for i in np.flatnonzero(events == 1):
        later = times > times[i]  # tied times are not comparable
        comparable += int(later.sum())
        concordant += float(np.sum(risks[i] > risks[later]))
        concordant += 0.5 * float(np.sum(risks[i] == risks[later]))
    if comparable == 0:
        raise UndefinedResultError("c-index undefined: no comparable pairs")
    return concordant / comparable


@dataclass
class KmCurve:
    """Product-limit curve: distinct event times, the step value after
    each, and the at-risk / event counts feeding each step."""

    times: np.ndarray
    survival: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray

    def value_at(self, t: float) -> float:
        idx = np.searchsorted(self.times, t, side="right") - 1
        return 1.0 if idx < 0 else float(self.survival[idx])


def kaplan_meier(outcomes) -> KmCurve:
    """S(t) = prod_{t_k <= t} (1 - d_k / n_k) over distinct death times."""
    if len(outcomes) == 0:
        raise DataError("kaplan_meier: no outcomes (0 subjects)")
    times, events = _arrays(outcomes)
    event_times = np.unique(times[events == 1])
    at_risk, deaths = _risk_table(times, events, event_times)
    return KmCurve(times=event_times, survival=np.cumprod(1.0 - deaths / at_risk), at_risk=at_risk,
                   events=deaths)


@dataclass
class LogrankResult:
    chi2: float
    p: float
    degenerate: bool = False  # no events / zero variance


def logrank_test(group_a, group_b) -> LogrankResult:
    """Two-group log-rank test via the hypergeometric model at each
    distinct death time; p from the chi-square distribution, 1 dof."""
    for name, group in (("a", group_a), ("b", group_b)):
        if len(group) == 0:
            raise DataError(f"logrank: group {name} is empty; both groups need at least one subject")
    (ta, ea), (tb, eb) = _arrays(group_a), _arrays(group_b)
    death_times = np.unique(np.concatenate([ta[ea == 1], tb[eb == 1]]))
    (na, da), (nb, db) = _risk_table(ta, ea, death_times), _risk_table(tb, eb, death_times)
    n, d = na + nb, da + db  # n >= d >= 1 at every death time
    var = float(np.sum(d * (na / n) * (nb / n) * (n - d) / np.maximum(n - 1, 1)))  # n = 1 adds 0
    if var <= 0.0:
        return LogrankResult(chi2=0.0, p=1.0, degenerate=True)
    chi2 = (float(da.sum()) - float(np.sum(d * na / n))) ** 2 / var
    return LogrankResult(chi2=chi2, p=chi2_sf(chi2, 1), degenerate=False)


def risk_stratify(risks) -> list:
    """Median split: strictly above the median is 'high', else 'low'.

    Even n uses the midpoint of the two central order statistics.
    """
    risks = np.asarray(risks, dtype=np.float64)
    if risks.ndim != 1 or risks.shape[0] < 2:
        raise DataError(f"risk_stratify: need a 1-d array of at least 2 risks, got shape {risks.shape}")
    _check_finite("risk_stratify", risks)
    med = float(np.median(risks))
    return ["high" if r > med else "low" for r in risks]


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution, P(chi2 > x). Only df = 1,
    the log-rank test's, is supported; there the tail is the closed form
    erfc(sqrt(x / 2))."""
    if df != 1:
        raise ConfigError(f"chi2_sf: only 1 degree of freedom is supported, got df={df}")
    if x <= 0:
        return 1.0
    return math.erfc(math.sqrt(x / 2.0))
