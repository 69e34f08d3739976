"""Primitive ops: spec examples, invariants, and gradient checks."""

import math

import numpy as np
import pytest

from survmamba.blocks import BiMambaBlock
from survmamba.errors import ConsumedGraphError, NonFiniteError, ShapeError
from survmamba.numerics import (
    Tensor,
    causal_depthwise_conv1d,
    concat,
    flip_runs,
    grad_check,
    layer_norm,
    linear,
    reshape,
    segment_mean,
    silu,
    softplus,
    stacked_linear,
    tmean,
    tsum,
)

import _oracles as oracle


class TestLinear:
    def test_identity_weight(self):
        y = linear(Tensor([1.0, 2.0]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        assert np.array_equal(y.data, [1.0, 2.0])

    def test_zero_weight_bias_passthrough(self):
        y = linear(Tensor([1.0, 2.0]), Tensor(np.zeros((2, 2))), Tensor([3.0, 4.0]))
        assert np.array_equal(y.data, [3.0, 4.0])

    def test_hand_matrix_multiply(self):
        y = linear(Tensor([1.0, 2.0]), Tensor([[1.0, 1.0], [1.0, -1.0]]), Tensor([0.0, 0.0]))
        assert np.array_equal(y.data, [3.0, -1.0])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3,\).*\(2, 2\)"):
            linear(Tensor([1.0, 2.0, 3.0]), Tensor(np.eye(2)), Tensor(np.zeros(2)))

    def test_linearity_without_bias(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(4, 3)))
        x, y = rng.normal(size=4), rng.normal(size=4)
        a, b = 0.7, -1.3
        lhs = linear(Tensor(a * x + b * y), w).data
        rhs = a * linear(Tensor(x), w).data + b * linear(Tensor(y), w).data
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestElementwise:
    def test_silu_values(self):
        out = silu(Tensor([0.0, 1.0, -1.0])).data
        assert out[0] == 0.0
        assert abs(out[1] - 1.0 / (1.0 + math.exp(-1.0))) < 1e-12
        assert abs(out[1] - 0.731059) < 1e-6
        assert abs(out[2] - (-(1.0 / (1.0 + math.exp(1.0))))) < 1e-12
        assert abs(out[2] - (-0.268941)) < 1e-6

    def test_softplus_values(self):
        out = softplus(Tensor([0.0, -1000.0, 1000.0])).data
        assert abs(out[0] - math.log(2.0)) < 1e-12
        assert 0.0 <= out[1] <= 1e-300
        assert abs(out[2] - 1000.0) / 1000.0 < 1e-12

    def test_softplus_positive_in_normal_range(self):
        x = np.linspace(-30, 30, 101)
        assert np.all(softplus(Tensor(x)).data > 0)


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        out = layer_norm(Tensor([5.0, 5.0, 5.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.array_equal(out.data, np.zeros(3))

    def test_hand_row_eps_zero(self):
        out = layer_norm(Tensor([1.0, 2.0, 3.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=0.0)
        expect = np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0 / 3.0)
        assert np.max(np.abs(out.data - expect)) < 1e-12
        assert abs(out.data[0] - (-1.224745)) < 1e-6

    def test_zero_gamma_gives_beta(self):
        out = layer_norm(Tensor([1.0, 2.0, 3.0]), Tensor(np.zeros(3)), Tensor(np.full(3, 7.0)))
        assert np.array_equal(out.data, [7.0, 7.0, 7.0])

    def test_row_moments(self):
        # with eps=1e-5 the normalized variance is v/(v+eps); rows need
        # variance >> eps for the 1e-6 bound to be attainable
        rng = np.random.default_rng(1)
        x = rng.normal(scale=10.0, size=(50, 16))
        out = layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)), eps=1e-5).data
        assert np.max(np.abs(out.mean(axis=-1))) <= 1e-10
        var = out.var(axis=-1)
        assert np.max(np.abs(var - 1.0)) < 1e-6

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 6))
        g, b = rng.normal(size=6), rng.normal(size=6)
        mine = layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
        assert np.max(np.abs(mine - oracle.layer_norm(x, g, b))) < 1e-12


class TestCausalConv:
    def test_identity_tap(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 3))
        kern = np.zeros((3, 4))
        kern[:, -1] = 1.0
        out = causal_depthwise_conv1d(Tensor(x), Tensor(kern), Tensor(np.zeros(3))).data
        assert np.array_equal(out, x)

    def test_pure_delay(self):
        x = np.array([[[1.0], [2.0], [3.0]]])
        kern = np.array([[1.0, 0.0]])
        out = causal_depthwise_conv1d(Tensor(x), Tensor(kern), Tensor(np.zeros(1))).data
        assert np.array_equal(out[0, :, 0], [0.0, 1.0, 2.0])

    def test_hand_convolution(self):
        x = np.array([[[1.0], [2.0], [3.0]]])
        kern = np.array([[1.0, 1.0]])
        out = causal_depthwise_conv1d(Tensor(x), Tensor(kern), Tensor(np.zeros(1))).data
        assert np.array_equal(out[0, :, 0], [1.0, 3.0, 5.0])

    def test_causality(self):
        # output at t must be invariant to any change at positions > t
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 8, 2))
        kern = Tensor(rng.normal(size=(2, 3)))
        bias = Tensor(rng.normal(size=2))
        base = causal_depthwise_conv1d(Tensor(x), kern, bias).data
        for t in range(7):
            x2 = x.copy()
            x2[0, t + 1 :, :] = rng.normal(size=x2[0, t + 1 :, :].shape)
            out2 = causal_depthwise_conv1d(Tensor(x2), kern, bias).data
            assert np.array_equal(out2[0, : t + 1], base[0, : t + 1])

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 6, 3))
        kern = rng.normal(size=(3, 4))
        bias = rng.normal(size=3)
        mine = causal_depthwise_conv1d(Tensor(x), Tensor(kern), Tensor(bias)).data
        assert np.max(np.abs(mine - oracle.causal_conv(x, kern, bias))) < 1e-12


class TestGradCheck:
    def test_quadratic(self):
        x = Tensor(np.asarray(3.0), requires_grad=True)
        err = grad_check(lambda: x * x, [("x", x)], h=1e-5)
        assert err <= 1e-7

    def test_silu_at_half(self):
        x = Tensor(np.asarray(0.5), requires_grad=True)
        err = grad_check(lambda: silu(x), [("x", x)], h=1e-5)
        assert err <= 1e-6

    def test_constant_function(self):
        x = Tensor(np.asarray(2.0), requires_grad=True)
        c = Tensor(np.asarray(1.5))
        err = grad_check(lambda: c * 1.0, [("x", x)], h=1e-5)
        assert err == 0.0

    def test_nonfinite_raises(self):
        x = Tensor(np.asarray(1.0), requires_grad=True)
        with pytest.raises(NonFiniteError), np.errstate(divide="ignore"):
            grad_check(lambda: x / Tensor(np.asarray(0.0)), [("x", x)])

    def test_all_primitives_gaussian_inputs(self):
        # reverse mode vs central differences at 1e-6 relative, N(0,1) draws
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        gam = Tensor(rng.normal(size=4), requires_grad=True)
        bet = Tensor(rng.normal(size=4), requires_grad=True)

        def f():
            y = linear(x, w, b)
            y = layer_norm(y, gam, bet)
            return tsum(silu(y) + softplus(y))

        err = grad_check(f, [("x", x), ("w", w), ("b", b), ("g", gam), ("be", bet)], h=1e-6)
        assert err <= 1e-6


class TestShapeOps:
    def test_segment_mean_exact(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        out = segment_mean(x, [2, 2]).data
        assert np.array_equal(out[:, 0], [1.5, 3.5])

    def test_flip_runs_reverses_each_run(self):
        x = np.arange(6, dtype=np.float64)[:, None]
        assert np.array_equal(flip_runs(Tensor(x), np.array([4, 2])).data[:, 0], [3, 2, 1, 0, 5, 4])
        assert np.array_equal(flip_runs(Tensor(x), np.array([1, 3, 2])).data[:, 0], [0, 3, 2, 1, 5, 4])

    def test_conv_on_runs_matches_per_run_conv(self):
        """Each run of a flat input convolves as its own (1, K, E) sequence:
        outputs and all three gradients, runs shorter than the kernel too."""
        rng = np.random.default_rng(8)
        sizes = [5, 1, 3, 2]
        xs = [Tensor(rng.normal(size=(k, 3)), requires_grad=True) for k in sizes]
        kern = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        bias = Tensor(rng.normal(size=3), requires_grad=True)
        w = rng.normal(size=(sum(sizes), 3))
        flat = Tensor(np.concatenate([x.data for x in xs]), requires_grad=True)
        out = causal_depthwise_conv1d(flat, kern, bias, np.array(sizes))
        tsum(out * Tensor(w)).backward()
        got = (out.data, flat.grad, kern.grad, bias.grad)
        kern.zero_grad(), bias.zero_grad()
        outs = [causal_depthwise_conv1d(reshape(x, (1, k, 3)), kern, bias) for x, k in zip(xs, sizes)]
        tsum(reshape(concat(outs, axis=1), (sum(sizes), 3)) * Tensor(w)).backward()
        want = (np.concatenate([o.data[0] for o in outs]), np.concatenate([x.grad for x in xs]), kern.grad, bias.grad)
        for g, r in zip(got, want):
            assert np.max(np.abs(g - r)) <= 1e-14 * np.max(np.abs(r))

    def test_runs_must_cover_rows(self):
        x = Tensor(np.ones((5, 2)))
        with pytest.raises(ShapeError, match="conv1d: lengths: group sizes sum 4"):
            causal_depthwise_conv1d(x, Tensor(np.ones((2, 2))), Tensor(np.zeros(2)), np.array([3, 1]))
        with pytest.raises(ShapeError, match="flip_runs: lengths: group 1 has size 0"):
            flip_runs(x, np.array([5, 0]))

    def test_flip_runs_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 2)))

        def f():
            return tsum(flip_runs(x, np.array([3, 1, 2])) * w)

        assert grad_check(f, [("x", x)], h=1e-6) <= 1e-8

    def test_segment_mean_sizes_must_cover(self):
        with pytest.raises(ShapeError):
            segment_mean(Tensor(np.zeros((4, 2))), [3, 2])

    def test_stacked_linear_matches_per_row(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4, 2))
        b = rng.normal(size=(3, 2))
        out = stacked_linear(Tensor(x), Tensor(w), Tensor(b)).data
        for f in range(3):
            assert np.max(np.abs(out[f] - (x[f] @ w[f] + b[f]))) < 1e-12

    def test_tensor_invariant_finite(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 4)))
        b = Tensor(rng.normal(size=4))
        y = silu(softplus(linear(x, w, b)))
        assert np.all(np.isfinite(y.data))
        assert int(np.prod(y.shape)) == y.data.size


class TestConsumedGraph:
    """backward() frees each interior node once swept; leaves keep .grad."""

    @staticmethod
    def _diamond():
        x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
        w = Tensor(np.array([1.5, 0.25, -0.75]), requires_grad=True)
        h = silu(x * w)  # used twice below
        return x, w, h, tsum(h * h + h * x)

    def test_second_backward_raises(self):
        _, _, _, loss = self._diamond()
        loss.backward()
        with pytest.raises(ConsumedGraphError, match="already consumed"):
            loss.backward()

    def test_backward_through_consumed_subgraph_raises(self):
        x, _, h, loss = self._diamond()
        loss.backward()
        with pytest.raises(ConsumedGraphError):
            tsum(h * x).backward()

    def test_interior_nodes_freed(self):
        x, w, h, loss = self._diamond()
        loss.backward()
        for node in (h, loss):
            assert node.grad is None and node._parents == ()
        assert x.grad is not None and w.grad is not None

    def test_leaf_gradients_unchanged_by_freeing(self):
        """Leaf gradients equal bit for bit those of the sweep that keeps
        the whole graph, on a diamond and on a bidirectional block."""
        def block_loss():
            blk = BiMambaBlock(3, 4, 2, 2, rng=np.random.default_rng(1))
            rng = np.random.default_rng(2)
            for p in blk.parameters():
                p.data += rng.normal(scale=0.5, size=p.shape)
            tokens = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
            return [tokens] + blk.parameters(), tmean(silu(blk(tokens)))

        def diamond():
            x, w, _, loss = self._diamond()
            return [x, w], loss

        for build in (diamond, block_loss):
            leaves, loss = build()
            loss.backward()
            ref_leaves, ref_loss = build()
            oracle.backward_keep_graph(ref_loss)
            for got, ref in zip(leaves, ref_leaves):
                assert np.array_equal(got.grad, ref.grad)
