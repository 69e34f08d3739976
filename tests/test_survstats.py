"""Survival statistics against brute-force and quadrature oracles."""

import numpy as np
import pytest

from survmamba.errors import ConfigError, DataError, UndefinedResultError
from survmamba.survstats import (
    SurvivalOutcome,
    chi2_sf,
    concordance_index,
    kaplan_meier,
    logrank_test,
    risk_stratify,
)

import _oracles as oracle

O = SurvivalOutcome


class TestConcordance:
    def test_perfectly_ordered(self):
        assert concordance_index([3, 2, 1], [O(1, 1), O(2, 1), O(3, 1)]) == 1.0

    def test_perfectly_anti_ordered(self):
        assert concordance_index([1, 2, 3], [O(1, 1), O(2, 1), O(3, 1)]) == 0.0

    def test_tie_fixture(self):
        # 3 comparable pairs, one risk tie counted 1/2
        got = concordance_index([5, 3, 3], [O(2, 1), O(4, 1), O(6, 0)])
        assert abs(got - 2.5 / 3.0) < 1e-12

    def test_undefined_when_no_comparable_pairs(self):
        with pytest.raises(UndefinedResultError):
            concordance_index([1, 2], [O(5, 0), O(6, 0)])

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 201))
            times = np.round(rng.exponential(10.0, size=n), 1) + 0.1
            events = rng.integers(0, 2, size=n)
            risks = np.round(rng.normal(size=n), 1)  # rounding forces ties
            ref = oracle.cindex_bruteforce(list(risks), list(times), list(events))
            if ref is None:
                with pytest.raises(UndefinedResultError):
                    concordance_index(risks, [O(t, int(e)) for t, e in zip(times, events)])
            else:
                got = concordance_index(risks, [O(t, int(e)) for t, e in zip(times, events)])
                assert got == ref

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(1)
        n = 60
        times = rng.exponential(10.0, size=n) + 0.1
        events = rng.integers(0, 2, size=n)
        risks = rng.normal(size=n)
        outs = [O(t, int(e)) for t, e in zip(times, events)]
        base = concordance_index(risks, outs)
        assert concordance_index(np.exp(risks), outs) == base
        assert concordance_index(3.0 * risks + 7.0, outs) == base

    def test_negation_complements_without_ties(self):
        rng = np.random.default_rng(2)
        n = 50
        times = rng.exponential(5.0, size=n) + 0.1
        events = rng.integers(0, 2, size=n)
        risks = rng.normal(size=n)  # continuous draws: no ties
        if not events.any():
            events[0] = 1
        outs = [O(t, int(e)) for t, e in zip(times, events)]
        assert abs(concordance_index(risks, outs) + concordance_index(-risks, outs) - 1.0) < 1e-12


class TestKaplanMeier:
    def test_all_censored_flat_one(self):
        km = kaplan_meier([O(3, 0), O(7, 0)])
        assert km.times.size == 0
        assert km.value_at(100.0) == 1.0

    def test_product_limit_by_hand(self):
        km = kaplan_meier([O(1, 1), O(2, 1), O(3, 1)])
        # hand product-limit: (1 - 1/3), then * (1 - 1/2), then * (1 - 1/1)
        s1 = 1.0 - 1.0 / 3.0
        expect = [s1, s1 * (1.0 - 1.0 / 2.0), 0.0]
        assert np.array_equal(km.survival, expect)
        assert np.max(np.abs(km.survival - np.array([2.0, 1.0, 0.0]) / 3.0)) < 1e-15
        assert np.array_equal(km.at_risk, [3, 2, 1])

    def test_censoring_shrinks_risk_set(self):
        km = kaplan_meier([O(1, 1), O(2, 0), O(3, 1)])
        assert np.array_equal(km.times, [1.0, 3.0])
        assert abs(km.value_at(1.0) - 2.0 / 3.0) < 1e-15
        assert km.value_at(3.0) == 0.0

    def test_deaths_before_censorings_at_ties(self):
        # censored subject at t stays in the risk set for deaths at t
        km = kaplan_meier([O(5, 1), O(5, 0), O(9, 1)])
        assert km.at_risk[0] == 3

    def test_no_censoring_equals_empirical_survival(self):
        rng = np.random.default_rng(3)
        times = np.round(rng.exponential(10.0, size=40), 2) + 0.01
        km = kaplan_meier([O(t, 1) for t in times])
        for t in km.times:
            empirical = np.mean(times > t)
            assert abs(km.value_at(t) - empirical) < 1e-12

    def test_curve_monotone_in_unit_interval(self):
        rng = np.random.default_rng(4)
        outs = [O(t + 0.01, int(e)) for t, e in zip(rng.exponential(5, 40), rng.integers(0, 2, 40))]
        km = kaplan_meier(outs)
        assert np.all(np.diff(km.survival) <= 1e-15)
        assert np.all(km.survival >= 0.0) and np.all(km.survival <= 1.0)


class TestLogrank:
    def test_identical_groups(self):
        grp = [O(1, 1), O(4, 0), O(7, 1)]
        res = logrank_test(grp, list(grp))
        assert res.chi2 == 0.0
        assert res.p == 1.0

    def test_separated_groups(self):
        res = logrank_test([O(1, 1), O(2, 1)], [O(10, 1), O(11, 1)])
        assert res.chi2 > 1.5
        assert res.p < 0.2

    def test_hand_computed_two_by_two(self):
        # A = [1 event], B = [2 event]; at t=1: nA=1, nB=1, d=1 -> E_A=0.5,
        # V=0.25; at t=2 only B at risk -> E against... O-E = 0.5, chi2 = 1
        res = logrank_test([O(1, 1)], [O(2, 1)])
        assert abs(res.chi2 - 1.0) < 1e-12

    def test_no_events_degenerate(self):
        res = logrank_test([O(1, 0)], [O(2, 0)])
        assert res.degenerate
        assert res.chi2 == 0.0 and res.p == 1.0

    def test_label_swap_invariance(self):
        rng = np.random.default_rng(5)
        a = [O(t + 0.01, int(e)) for t, e in zip(rng.exponential(5, 30), rng.integers(0, 2, 30))]
        b = [O(t + 0.01, int(e)) for t, e in zip(rng.exponential(9, 25), rng.integers(0, 2, 25))]
        r1 = logrank_test(a, b)
        r2 = logrank_test(b, a)
        assert abs(r1.chi2 - r2.chi2) < 1e-10
        assert abs(r1.p - r2.p) < 1e-12


class TestChiSquareTail:
    def test_reference_point(self):
        assert abs(chi2_sf(3.841, 1) - 0.05) < 1e-3

    def test_against_quadrature_oracle(self):
        for x in (0.1, 0.5, 1.0, 2.0, 3.841, 6.635, 10.83, 20.0):
            q = oracle.chi2_sf_quadrature(x, df=1)
            assert abs(chi2_sf(x, 1) - q) < 1e-9

    def test_edges(self):
        assert chi2_sf(0.0, 1) == 1.0
        assert 0.0 < chi2_sf(100.0, 1) < 1e-20
        assert chi2_sf(-1.0, 1) == 1.0

    def test_only_one_degree_of_freedom(self):
        with pytest.raises(ConfigError, match="df=2"):
            chi2_sf(3.0, 2)


def _cohort(rng, n):
    """n outcomes on a coarse time grid, so deaths and censorings tie."""
    times = rng.integers(1, max(2, n // 2) + 1, size=n) * 0.5
    events = (rng.uniform(size=n) < rng.uniform(0.0, 1.0)).astype(int)
    return [O(float(t), int(e)) for t, e in zip(times, events)]


class TestAgainstLoopOracles:
    """The shared risk table against the per-death-time loops it replaced,
    on seeded random cohorts with tied times, all-censored and all-event
    groups, and death times where a single subject is at risk."""

    def test_kaplan_meier_bit_identical(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            outs = _cohort(rng, int(rng.integers(1, 40)))
            km = kaplan_meier(outs)
            times, surv, at_risk, events = oracle.kaplan_meier_loop(outs)
            for got, want in ((km.times, times), (km.survival, surv), (km.at_risk, at_risk),
                              (km.events, events)):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_logrank_within_tolerance(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            a, b = _cohort(rng, int(rng.integers(1, 30))), _cohort(rng, int(rng.integers(1, 30)))
            res = logrank_test(a, b)
            chi2, p, degenerate = oracle.logrank_loop(a, b)
            assert res.degenerate == degenerate
            assert abs(res.chi2 - chi2) <= 1e-9 * max(1.0, chi2)
            assert abs(res.p - p) <= 1e-12


class TestTypedErrors:
    """Malformed input raises DataError (a ValueError) naming the value."""

    @pytest.mark.parametrize("call, match", [
        (lambda: O(0.0, 1), "got 0.0"),
        (lambda: O(float("nan"), 1), "got nan"),
        (lambda: O(2.0, 2), "got 2"),
        (lambda: kaplan_meier([]), "0 subjects"),
        (lambda: logrank_test([], [O(1, 1)]), "group a is empty"),
        (lambda: logrank_test([O(1, 1)], []), "group b is empty"),
        (lambda: risk_stratify([1.0]), r"got shape \(1,\)"),
        (lambda: risk_stratify(1.0), r"got shape \(\)"),
        (lambda: concordance_index([1.0, 2.0], [O(1, 1)]), r"shape \(2,\) for 1 outcomes"),
        (lambda: concordance_index(5.0, [O(1, 1)]), r"shape \(\) for 1 outcomes"),
        # a NaN compares false both ways, so it would land in "low" and score as a tie
        (lambda: risk_stratify([1.0, np.nan, 2.0, np.inf]), "^risk_stratify: risk nan at index 1 is not finite$"),
        (lambda: risk_stratify([1.0, 2.0, np.inf]), "^risk_stratify: risk inf at index 2 is not finite$"),
        (lambda: risk_stratify([-np.inf, 1.0]), "^risk_stratify: risk -inf at index 0 is not finite$"),
        (lambda: concordance_index([1.0, np.nan, 2.0], [O(1, 1), O(2, 1), O(3, 0)]),
         "^concordance_index: risk nan at index 1 is not finite$"),
        (lambda: concordance_index([1.0, 2.0, np.inf], [O(1, 1), O(2, 1), O(3, 0)]),
         "^concordance_index: risk inf at index 2 is not finite$"),
        (lambda: concordance_index([-np.inf, 1.0], [O(1, 1), O(2, 1)]),
         "^concordance_index: risk -inf at index 0 is not finite$"),
    ], ids=["time_zero", "time_nan", "event_flag", "km_empty", "logrank_a_empty", "logrank_b_empty",
            "stratify_one", "stratify_scalar", "cindex_lengths", "cindex_scalar",
            "stratify_nan", "stratify_inf", "stratify_neg_inf", "cindex_nan", "cindex_inf", "cindex_neg_inf"])
    def test_data_error(self, call, match):
        with pytest.raises(DataError, match=match):
            call()


class TestStratify:
    def test_even_split(self):
        assert risk_stratify([1, 2, 3, 4]) == ["low", "low", "high", "high"]

    def test_all_equal(self):
        assert risk_stratify([5, 5, 5]) == ["low", "low", "low"]

    def test_strict_inequality_rule(self):
        assert risk_stratify([5, 1, 3]) == ["high", "low", "low"]

    def test_needs_two(self):
        with pytest.raises(ValueError):
            risk_stratify([1.0])
