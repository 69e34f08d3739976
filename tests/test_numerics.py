"""Primitive ops: spec examples, invariants, and gradient checks."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import survmamba.numerics as numerics
from survmamba.blocks import BiMambaBlock
from survmamba.errors import ConsumedGraphError, NonFiniteError, ShapeError
from survmamba.gradsuite import _layer_norm_node
from survmamba.numerics import (
    Runs,
    Tensor,
    concat,
    grad_check,
    linear,
    no_grad,
    segment_mean,
    silu,
    stacked_linear,
    tmean,
    tsum,
)

from survmamba.synth import SynthSpec, synth_generate
from survmamba.training import TrainConfig, build_model

import _oracles as oracle
from _oracles import causal_depthwise_conv1d, div_op, flip_runs, softplus_op


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
        out = numerics._softplus_np(np.array([0.0, -1000.0, 1000.0]))
        assert abs(out[0] - math.log(2.0)) < 1e-12
        assert 0.0 <= out[1] <= 1e-300
        assert abs(out[2] - 1000.0) / 1000.0 < 1e-12

    def test_softplus_positive_in_normal_range(self):
        x = np.linspace(-30, 30, 101)
        assert np.all(numerics._softplus_np(x) > 0)


def test_no_grad_holds_for_its_own_thread_only():
    """A thread starts recording whatever another thread's no_grad says,
    and no_grad restores recording on exit."""
    x = Tensor(np.ones(2), requires_grad=True)
    other = []
    with no_grad():
        worker = threading.Thread(target=lambda: other.append(tsum(x).requires_grad))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert not tsum(x).requires_grad
    assert other == [True]
    assert tsum(x).requires_grad


def layer_norm(x, gamma, beta, eps=1e-5):
    """The blocks' layer norm (``numerics._layer_norm``) on arrays."""
    return numerics._layer_norm(np.asarray(x, dtype=np.float64), np.asarray(gamma), np.asarray(beta), eps)[0]


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        out = layer_norm([5.0, 5.0, 5.0], np.ones(3), np.zeros(3))
        assert np.array_equal(out, np.zeros(3))

    def test_hand_row_eps_zero(self):
        out = layer_norm([1.0, 2.0, 3.0], np.ones(3), np.zeros(3), eps=0.0)
        expect = np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0 / 3.0)
        assert np.max(np.abs(out - expect)) < 1e-12
        assert abs(out[0] - (-1.224745)) < 1e-6

    def test_zero_gamma_gives_beta(self):
        out = layer_norm([1.0, 2.0, 3.0], np.zeros(3), np.full(3, 7.0))
        assert np.array_equal(out, [7.0, 7.0, 7.0])

    def test_row_moments(self):
        # with eps=1e-5 the normalized variance is v/(v+eps); rows need
        # variance >> eps for the 1e-6 bound to be attainable
        rng = np.random.default_rng(1)
        x = rng.normal(scale=10.0, size=(50, 16))
        out = layer_norm(x, np.ones(16), np.zeros(16), eps=1e-5)
        assert np.max(np.abs(out.mean(axis=-1))) <= 1e-10
        var = out.var(axis=-1)
        assert np.max(np.abs(var - 1.0)) < 1e-6

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 6))
        g, b = rng.normal(size=6), rng.normal(size=6)
        mine = layer_norm(x, g, b)
        assert np.max(np.abs(mine - oracle.layer_norm(x, g, b))) < 1e-12


def _conv_batch(x, kern, bias):
    """The conv kernel over a (B, M, E) batch as B equal runs, reshaped back."""
    b, m, e = x.shape
    return numerics._conv1d(x.reshape(b * m, e), kern, bias, Runs([m] * b)).reshape(x.shape)


class TestCausalConv:
    def test_identity_tap(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 3))
        kern = np.zeros((3, 4))
        kern[:, -1] = 1.0
        assert np.array_equal(_conv_batch(x, kern, np.zeros(3)), x)

    def test_pure_delay(self):
        x = np.array([[[1.0], [2.0], [3.0]]])
        out = _conv_batch(x, np.array([[1.0, 0.0]]), np.zeros(1))
        assert np.array_equal(out[0, :, 0], [0.0, 1.0, 2.0])

    def test_hand_convolution(self):
        x = np.array([[[1.0], [2.0], [3.0]]])
        out = _conv_batch(x, np.array([[1.0, 1.0]]), np.zeros(1))
        assert np.array_equal(out[0, :, 0], [1.0, 3.0, 5.0])

    def test_causality(self):
        # output at t must be invariant to any change at positions > t
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 8, 2))
        kern = rng.normal(size=(2, 3))
        bias = rng.normal(size=2)
        base = _conv_batch(x, kern, bias)
        for t in range(7):
            x2 = x.copy()
            x2[0, t + 1 :, :] = rng.normal(size=x2[0, t + 1 :, :].shape)
            out2 = _conv_batch(x2, kern, bias)
            assert np.array_equal(out2[0, : t + 1], base[0, : t + 1])

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 6, 3))
        kern = rng.normal(size=(3, 4))
        bias = rng.normal(size=3)
        mine = _conv_batch(x, kern, bias)
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
            grad_check(lambda: div_op(x, Tensor(np.asarray(0.0))), [("x", x)])

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
            y = _layer_norm_node(y, gam, bet)
            return tsum(silu(y) + softplus_op(y))

        err = grad_check(f, [("x", x), ("w", w), ("b", b), ("g", gam), ("be", bet)], h=1e-6)
        assert err <= 1e-6


class TestRuns:
    """The one flat-run layout: validation at construction, and the
    packing, flip and conv it serves, against their plain counterparts."""

    @pytest.mark.parametrize("sizes, message", [
        ([4, 0, 2], "group 1 has size 0"),
        ([4, 3, -1], "group 2 has size -1"),
        ([[4, 2]], "integers"),
        ([4.0, 2.0], "integers"),
        (np.zeros(0, dtype=int), "at least one group"),
    ])
    def test_bad_sizes_named_at_construction(self, sizes, message):
        with pytest.raises(ShapeError, match=f"runs: .*{message}"):
            Runs(sizes)

    @settings(max_examples=60)
    @given(sizes=st.lists(st.integers(1, 20), min_size=1, max_size=12), w=st.integers(1, 5))
    def test_layout_properties(self, sizes, w):
        """Unpack after pack is the identity; the flip reverses each run
        and is its own inverse; the conv over the runs equals the padded
        batch conv with each run right-padded to its own row, bit for bit,
        in value and in all three gradients."""
        runs, e = Runs(sizes), 3
        rng = np.random.default_rng(sizes + [w])
        x = rng.normal(size=(runs.rows, e))
        assert np.array_equal(runs.unpack(runs.pack(x)), x)
        flipped = runs.flip(x)
        for lo, k in zip(runs.starts, sizes):
            assert np.array_equal(flipped[lo : lo + k], x[lo : lo + k][::-1])
        assert np.array_equal(runs.flip(flipped), x)

        kern, bias = rng.normal(size=(e, w)), rng.normal(size=e)
        g = rng.normal(size=(runs.rows, e))
        m = max(sizes)
        pad = np.zeros((len(sizes), m), dtype=bool)
        for r, k in enumerate(sizes):
            pad[r, :k] = True  # each run in its own row, zeros after it

        def run(conv, xv, gv):
            ts = [Tensor(xv, requires_grad=True), Tensor(kern, requires_grad=True),
                  Tensor(bias, requires_grad=True)]
            out = conv(*ts)
            out._backward(gv)
            return [out.data] + [t.grad for t in ts]

        got = run(lambda *ts: causal_depthwise_conv1d(*ts, runs), x, g)
        xb, gb = np.zeros(pad.shape + (e,)), np.zeros(pad.shape + (e,))
        xb[pad], gb[pad] = x, g
        want = run(oracle.padded_causal_conv, xb, gb)
        for name, a, b in zip(("y", "x", "kernel", "bias"), got, want):
            assert np.array_equal(a, b[pad] if b.ndim == 3 else b), name


class TestShapeOps:
    def test_segment_mean_exact(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        out = segment_mean(x, Runs([2, 2])).data
        assert np.array_equal(out[:, 0], [1.5, 3.5])

    def test_flip_runs_reverses_each_run(self):
        x = np.arange(6, dtype=np.float64)[:, None]
        for sizes, want in [([4, 2], [3, 2, 1, 0, 5, 4]), ([1, 3, 2], [0, 3, 2, 1, 5, 4]),
                            ([3, 3], [2, 1, 0, 5, 4, 3]), ([6], [5, 4, 3, 2, 1, 0])]:
            assert np.array_equal(flip_runs(Tensor(x), Runs(sizes)).data[:, 0], want), sizes

    def test_conv_on_runs_matches_per_run_conv(self):
        """Each run of a flat input convolves as its own one-run input:
        outputs and all three gradients, runs shorter than the kernel too."""
        rng = np.random.default_rng(8)
        sizes = [5, 1, 3, 2]
        xs = [Tensor(rng.normal(size=(k, 3)), requires_grad=True) for k in sizes]
        kern = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        bias = Tensor(rng.normal(size=3), requires_grad=True)
        w = rng.normal(size=(sum(sizes), 3))
        flat = Tensor(np.concatenate([x.data for x in xs]), requires_grad=True)
        out = causal_depthwise_conv1d(flat, kern, bias, Runs(sizes))
        tsum(out * Tensor(w)).backward()
        got = (out.data, flat.grad, kern.grad, bias.grad)
        kern.zero_grad(), bias.zero_grad()
        outs = [causal_depthwise_conv1d(x, kern, bias, Runs([k])) for x, k in zip(xs, sizes)]
        tsum(concat(outs, axis=0) * Tensor(w)).backward()
        want = (np.concatenate([o.data for o in outs]), np.concatenate([x.grad for x in xs]), kern.grad, bias.grad)
        for g, r in zip(got, want):
            assert np.max(np.abs(g - r)) <= 1e-14 * np.max(np.abs(r))

    def test_runs_must_cover_rows(self):
        x = Tensor(np.ones((5, 2)))
        with pytest.raises(ShapeError, match="conv1d: runs cover 4 rows, input has 5"):
            causal_depthwise_conv1d(x, Tensor(np.ones((2, 2))), Tensor(np.zeros(2)), Runs([3, 1]))
        with pytest.raises(ShapeError, match="flip_runs: runs cover 6 rows, input has 5"):
            flip_runs(x, Runs([5, 1]))

    def test_flip_runs_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 2)))
        runs = Runs([3, 1, 2])

        def f():
            return tsum(flip_runs(x, runs) * w)

        assert grad_check(f, [("x", x)], h=1e-6) <= 1e-8

    def test_segment_mean_runs_must_cover(self):
        with pytest.raises(ShapeError, match="segment_mean: runs cover 5 rows"):
            segment_mean(Tensor(np.zeros((4, 2))), Runs([3, 2]))

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
        y = silu(softplus_op(linear(x, w, b)))
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
        the whole graph and walks every leaf: on a diamond, a bidirectional
        block, a desk-width patient loss (whose fusion blocks share
        linear_z and whose scan branches feed xs to four consumers) and a
        lone leaf, whose gradient is ones."""
        def block_loss():
            blk = BiMambaBlock(3, 4, 2, 2, rng=np.random.default_rng(1))
            rng = np.random.default_rng(2)
            for p in blk.parameters():
                p.data += rng.normal(scale=0.5, size=p.shape)
            tokens = Tensor(rng.normal(size=(10, 3)), requires_grad=True)
            return [tokens] + blk.parameters(), tmean(silu(blk(tokens, Runs.cached((5, 5)))))

        def diamond():
            x, w, _, loss = self._diamond()
            return [x, w], loss

        def patient_loss():
            ds = synth_generate(SynthSpec(n_patients=12), seed=3)
            model = build_model(ds, TrainConfig(d_model=32, e_expand=64, n_state=8))
            rng = np.random.default_rng(4)
            for p in model.parameters():
                p.data += rng.normal(scale=0.05, size=p.shape)
            return model.parameters(), model.loss(ds.records[1])

        def leaf():
            p = Tensor(np.array(0.5), requires_grad=True)
            return [p], p

        for build in (diamond, block_loss, patient_loss, leaf):
            leaves, loss = build()
            loss.backward()
            ref_leaves, ref_loss = build()
            oracle.backward_keep_graph(ref_loss)
            assert all(ref.grad is not None for ref in ref_leaves)
            for got, ref in zip(leaves, ref_leaves):
                assert np.array_equal(got.grad, ref.grad)
        assert np.array_equal(leaves[0].grad, 1.0)
