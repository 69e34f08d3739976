"""Alignment, fusion, the adaptive gate, the hazard head and the
survival likelihood."""

import math

import numpy as np
import pytest

from survmamba.blocks import IFMBlock
from survmamba.errors import ConfigError
from survmamba.fusion import (
    AlphaParam,
    HazardHead,
    HazardOutput,
    adaptive_fuse,
    align_fine_tokens,
    fuse_coarse,
    fuse_fine,
    hazard_output_from,
    survival_nll,
)
from survmamba.model import ModelConfig
from survmamba.numerics import Runs, Tensor

import _oracles as oracle


def _ifm(seed=4, noise=304, d=3, e=4):
    blk = IFMBlock(d, e, 2, 2, rng=np.random.default_rng(seed))
    prng = np.random.default_rng(noise)
    for _, p in blk.named_parameters():
        p.data += prng.normal(scale=0.5, size=p.shape)
    return blk


class TestAlign:
    def test_noop_when_lengths_match(self):
        rng = np.random.default_rng(0)
        a, b = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 3)))
        oa, ob = align_fine_tokens(a, b, 4)
        assert np.array_equal(oa.data, a.data)
        assert np.array_equal(ob.data, b.data)

    def test_segment_means(self):
        a = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        b = Tensor(np.array([[5.0], [6.0]]))
        oa, ob = align_fine_tokens(a, b, 2)
        assert np.array_equal(oa.data[:, 0], [1.5, 3.5])
        assert np.array_equal(ob.data[:, 0], [5.0, 6.0])

    def test_remainder_rule_longer_first(self):
        a = Tensor(np.arange(5, dtype=float)[:, None])
        b = Tensor(np.zeros((2, 1)))
        oa, _ = align_fine_tokens(a, b, 2)
        # segments of sizes 3 then 2
        assert np.array_equal(oa.data[:, 0], [1.0, 3.5])

    def test_default_cap(self):
        # the model caps the fine length at ModelConfig.align_len, 256 by default
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(300, 2)))
        b = Tensor(rng.normal(size=(280, 2)))
        oa, ob = align_fine_tokens(a, b, min(300, 280, ModelConfig().align_len))
        assert oa.shape == (256, 2)
        assert ob.shape == (256, 2)

    def test_bad_length(self):
        a = Tensor(np.zeros((3, 2)))
        with pytest.raises(ConfigError):
            align_fine_tokens(a, a, 0)


class TestFuse:
    def test_zero_block_gives_zero(self):
        blk = IFMBlock(3, 4, 2, 2, rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        [hf] = fuse_fine([Tensor(rng.normal(size=(6, 3)))], [Tensor(rng.normal(size=(4, 3)))], blk, [4])
        assert np.array_equal(hf.data, np.zeros(3))

    def test_singleton_mean(self):
        blk = _ifm()
        rng = np.random.default_rng(4)
        a, b = Tensor(rng.normal(size=(1, 3))), Tensor(rng.normal(size=(1, 3)))
        [hf] = fuse_fine([a], [b], blk, [1])
        direct = blk(a, b, Runs([1])).data[0]
        assert np.array_equal(hf.data, direct)

    def test_matches_oracle_plus_mean(self):
        blk = _ifm(seed=5, noise=6)
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))
        hf = fuse_fine([Tensor(a)], [Tensor(b)], blk, [4])[0].data
        ref = oracle.ifm_forward(blk, a[None], b[None])[0].mean(axis=0)
        assert np.max(np.abs(hf - ref)) < 1e-12

    def test_fuse_coarse_aligns_to_shorter(self):
        blk = _ifm(seed=8, noise=9)
        rng = np.random.default_rng(10)
        [hc] = fuse_coarse([Tensor(rng.normal(size=(6, 3)))], [Tensor(rng.normal(size=(4, 3)))], blk)
        assert hc.shape == (3,)

    def test_fuse_coarse_zero_block(self):
        blk = IFMBlock(3, 4, 2, 2, rng=np.random.default_rng(15))
        rng = np.random.default_rng(16)
        [hc] = fuse_coarse([Tensor(rng.normal(size=(5, 3)))], [Tensor(rng.normal(size=(3, 3)))], blk)
        assert np.array_equal(hc.data, np.zeros(3))

    def test_fuse_coarse_singleton(self):
        blk = _ifm(seed=17, noise=18)
        rng = np.random.default_rng(19)
        a, b = Tensor(rng.normal(size=(1, 3))), Tensor(rng.normal(size=(1, 3)))
        [hc] = fuse_coarse([a], [b], blk)
        direct = blk(a, b, Runs([1])).data[0]
        assert np.array_equal(hc.data, direct)

    def test_fuse_coarse_matches_oracle(self):
        blk = _ifm(seed=20, noise=21)
        rng = np.random.default_rng(22)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))
        hc = fuse_coarse([Tensor(a)], [Tensor(b)], blk)[0].data
        ref = oracle.ifm_forward(blk, a[None], b[None])[0].mean(axis=0)
        assert np.max(np.abs(hc - ref)) < 1e-12


class TestAdaptiveFuse:
    def test_saturated_gates(self):
        rng = np.random.default_rng(11)
        hf, hc = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=5))
        high = adaptive_fuse(hf, hc, AlphaParam(50.0)).data
        low = adaptive_fuse(hf, hc, AlphaParam(-50.0)).data
        assert np.max(np.abs(high - hf.data)) < 1e-12
        assert np.max(np.abs(low - hc.data)) < 1e-12

    def test_zero_raw_exact_midpoint(self):
        rng = np.random.default_rng(12)
        hf, hc = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=5))
        mid = adaptive_fuse(hf, hc, AlphaParam(0.0)).data
        assert np.array_equal(mid, (hf.data + hc.data) / 2.0)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(13)
        for raw in (-3.0, -0.5, 0.0, 1.2, 4.0):
            hf, hc = rng.normal(size=6), rng.normal(size=6)
            out = adaptive_fuse(Tensor(hf), Tensor(hc), AlphaParam(raw)).data
            lo = np.minimum(hf, hc) - 1e-12
            hi = np.maximum(hf, hc) + 1e-12
            assert np.all(out >= lo) and np.all(out <= hi)

    def test_alpha_strictly_inside_unit_interval(self):
        for raw in (-700.0, -50.0, 0.0, 50.0, 700.0):
            val = AlphaParam(raw).value().item()
            assert 0.0 <= val <= 1.0  # saturates at float precision
        assert 0.0 < AlphaParam(-30.0).value().item() < 1.0


class TestHazardHead:
    def test_zero_head_gives_half_hazards(self):
        head = HazardHead(3, 4, rng=np.random.default_rng(14))
        head.lin.weight.data[:] = 0.0
        out = head(Tensor(np.ones(3)))
        assert np.array_equal(out.hazards.data, np.full(4, 0.5))
        assert np.array_equal(out.survival.data, [0.5, 0.25, 0.125, 0.0625])

    def test_no_event_limit(self):
        head = HazardHead(3, 4, rng=np.random.default_rng(15))
        head.lin.weight.data[:] = 0.0
        head.lin.bias.data[:] = -50.0
        out = head(Tensor(np.zeros(3)))
        assert np.max(np.abs(out.survival.data - 1.0)) < 1e-12
        assert abs(out.risk.item() + 4.0) < 1e-9

    def test_hand_traced_single_unit(self):
        head = HazardHead(1, 2, rng=np.random.default_rng(16))
        head.lin.weight.data[:] = np.array([[2.0, -1.0]])
        head.lin.bias.data[:] = np.array([0.5, 0.0])
        out = head(Tensor(np.array([1.0])))
        expect_h = oracle.sigmoid(np.array([2.5, -1.0]))
        assert np.max(np.abs(out.hazards.data - expect_h)) < 1e-12
        assert abs(out.survival.data[1] - (1 - expect_h[0]) * (1 - expect_h[1])) < 1e-15

    def test_survival_monotone_random_heads(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            h = Tensor(rng.uniform(0.0, 1.0, size=5))
            out = hazard_output_from(h)
            s = out.survival.data
            assert np.all(np.diff(s) <= 1e-15)
            assert np.all(s > 0.0) or h.data.max() == 1.0
            assert np.all(s <= 1.0)

    def test_risk_ordering_under_dominance(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            hb = rng.uniform(0.05, 0.6, size=4)
            ha = hb + rng.uniform(0.01, 0.3, size=4)
            ra = hazard_output_from(Tensor(np.clip(ha, 0, 0.99))).risk.item()
            rb = hazard_output_from(Tensor(hb)).risk.item()
            assert ra > rb

    def test_min_bins(self):
        with pytest.raises(ConfigError):
            HazardHead(3, 1, rng=np.random.default_rng(19))

    def test_matches_the_per_bin_loop(self):
        """Survival, risk and the hazards' gradient through the likelihood
        against the per-bin tape loop the cumulative-product node replaced,
        saturated hazards (exactly 0 and 1) included."""
        rng = np.random.default_rng(21)
        for i in range(300):
            n_bins = int(rng.integers(2, 9))
            h = rng.uniform(0.0, 1.0, size=n_bins)
            h[rng.uniform(size=n_bins) < 0.15] = 1.0
            h[rng.uniform(size=n_bins) < 0.1] = 0.0
            t_bin, censored = int(rng.integers(0, n_bins)), i % 2
            ours, ref = Tensor(h.copy(), requires_grad=True), Tensor(h.copy(), requires_grad=True)
            out = hazard_output_from(ours)
            surv, risk = oracle.hazard_survival_loop(ref)
            assert np.array_equal(out.survival.data, surv.data)
            assert out.risk.item() == risk.item()
            (survival_nll(out, t_bin, censored) + out.risk).backward()
            (survival_nll(HazardOutput(ref, surv, risk), t_bin, censored) + risk).backward()
            assert np.max(np.abs(ours.grad - ref.grad)) <= 1e-12 * np.max(np.abs(ref.grad))


class TestSurvivalNll:
    def test_certain_event_zero_loss(self):
        out = hazard_output_from(Tensor(np.array([1.0 - 1e-12, 0.5])))
        loss = survival_nll(out, 0, censored=0)
        assert abs(loss.item()) < 1e-9

    def test_certain_survival_zero_loss(self):
        out = hazard_output_from(Tensor(np.full(4, 1e-15)))
        loss = survival_nll(out, 3, censored=1)
        assert abs(loss.item()) < 1e-9

    def test_two_bin_fixtures(self):
        out = hazard_output_from(Tensor(np.array([0.5, 0.5])))
        event = survival_nll(out, 1, censored=0).item()
        cens = survival_nll(out, 1, censored=1).item()
        expect = 2.0 * math.log(2.0)
        assert abs(event - expect) < 1e-9
        assert abs(event - 1.386294) < 1e-6
        assert abs(cens - expect) < 1e-9

    def test_event_at_bin_zero_skips_survival_term(self):
        out = hazard_output_from(Tensor(np.array([0.25, 0.5])))
        assert abs(survival_nll(out, 0, censored=0).item() + math.log(0.25)) < 1e-12

    def test_loss_nonnegative_random(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            out = hazard_output_from(Tensor(rng.uniform(0, 1, size=4)))
            t = int(rng.integers(0, 4))
            c = int(rng.integers(0, 2))
            assert survival_nll(out, t, c).item() >= 0.0

    def test_bad_bin_index(self):
        out = hazard_output_from(Tensor(np.array([0.5, 0.5])))
        with pytest.raises(ConfigError):
            survival_nll(out, 2, censored=0)
