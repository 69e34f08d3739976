"""Scan kernels: discretization fixtures, route equivalence, stability,
and the associative-operator properties."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import survmamba.ssm as ssm
from survmamba.errors import ConfigError, ShapeError
from survmamba.gradsuite import check_scan
from survmamba.numerics import Runs, Tensor, grad_check, no_grad, reshape, silu, tsum
from survmamba.ssm import discretize, selective_scan_recurrent

import _oracles as oracle
from _oracles import apply_lti_kernel, flat_runs, lti_kernel, selective_scan_parallel


def _const_params(delta, a, b, c, m, e=1, n=1):
    """Broadcast scalar LTI parameters to the per-step layout of one run of
    m steps, followed by its Runs."""
    dt = Tensor(np.full((m, e), delta))
    av = Tensor(np.full((e, n), a))
    bv = Tensor(np.full((m, n), b))
    cv = Tensor(np.full((m, n), c))
    return dt, av, bv, cv, Runs.cached((m,))


def _vals(rng, b, m, e, n):
    """Scan sources as flat rows of b equal runs of m steps, and A."""
    vals = {
        "x": rng.normal(size=(b, m, e)),
        "delta": rng.uniform(0.05, 0.8, size=(b, m, e)),
        "A": -np.exp(rng.normal(size=(e, n))),
        "Bproj": rng.normal(size=(b, m, n)),
        "Cproj": rng.normal(size=(b, m, n)),
    }
    return {k: v if k == "A" else v.reshape(b * m, -1) for k, v in vals.items()}


def _fused(ts, mode, runs, scan=selective_scan_recurrent):
    return scan(ts["x"], discretize(ts["delta"], ts["A"], ts["Bproj"], mode, runs=runs), ts["Cproj"])


def _unfused(ts, mode, b):
    """The unfused tape composition (tests/_oracles.py) over b equal runs
    of flat rows, as the (b, M, .) batch it takes."""
    batch = {k: v if k == "A" else reshape(v, (b, -1) + v.shape[1:]) for k, v in ts.items()}
    abar, bbar = oracle.unfused_discretize(batch["delta"], ts["A"], batch["Bproj"], mode)
    return reshape(oracle.unfused_scan(batch["x"], abar, bbar, batch["Cproj"]), ts["x"].shape)


class TestDiscretize:
    def test_zero_timestep_is_identity(self):
        for mode in ("euler", "zoh"):
            dt, a, b, _, runs = _const_params(0.0, -1.0, 1.0, 1.0, m=1)
            dp = discretize(dt, a, b, mode, runs=runs)
            assert np.array_equal(dp.Abar.data.ravel(), [1.0])
            assert np.array_equal(dp.Bbar.data.ravel(), [0.0])

    def test_euler_fixture(self):
        dt, a, b, _, runs = _const_params(1.0, -1.0, 1.0, 1.0, m=1)
        dp = discretize(dt, a, b, "euler", runs=runs)
        assert abs(dp.Abar.data.ravel()[0] - math.exp(-1.0)) < 1e-15
        assert abs(dp.Abar.data.ravel()[0] - 0.367879) < 1e-6
        assert dp.Bbar.data.ravel()[0] == 1.0

    def test_zoh_fixture(self):
        dt, a, b, _, runs = _const_params(1.0, -1.0, 1.0, 1.0, m=1)
        dp = discretize(dt, a, b, "zoh", runs=runs)
        assert abs(dp.Abar.data.ravel()[0] - math.exp(-1.0)) < 1e-15
        expect = (math.exp(-1.0) - 1.0) / (-1.0)
        assert abs(dp.Bbar.data.ravel()[0] - expect) < 1e-15
        assert abs(dp.Bbar.data.ravel()[0] - 0.632121) < 1e-6

    def test_unknown_mode(self):
        dt, a, b, _, runs = _const_params(1.0, -1.0, 1.0, 1.0, m=1)
        with pytest.raises(ConfigError, match="mode"):
            discretize(dt, a, b, "bilinear", runs=runs)

    @pytest.mark.parametrize("a_shape", [(1, 2), (5, 2), (4, 3), (4,)])
    def test_a_must_be_e_by_n(self, a_shape):
        # an A of (1, N) used to broadcast silently and leave A.grad (E, N);
        # an (E', N) A used to end in a raw numpy ValueError
        rng = np.random.default_rng(1)
        x, dt = Tensor(rng.normal(size=(3, 4))), Tensor(np.full((3, 4), 0.2))
        bp, cp = Tensor(rng.normal(size=(3, 2))), Tensor(rng.normal(size=(3, 2)))
        a = Tensor(-np.ones(a_shape), requires_grad=True)
        runs = Runs.cached((3,))
        with pytest.raises(ShapeError, match=r"discretize: A \(.*\) is not \(E, N\) = \(4, 2\)"):
            discretize(dt, a, bp, "euler", runs=runs)
        dp = ssm.DiscreteParams(delta=dt, A=a, Bproj=bp, mode="euler", runs=runs)
        with pytest.raises(ShapeError, match=r"scan: A \(.*\) is not \(E, N\) = \(4, 2\)"):
            selective_scan_recurrent(x, dp, cp)

    def test_abar_in_unit_interval(self):
        rng = np.random.default_rng(0)
        dt = Tensor(rng.uniform(1e-3, 2.0, size=(10, 3)))
        a = Tensor(-np.exp(rng.normal(size=(3, 4))))
        b = Tensor(rng.normal(size=(10, 4)))
        for mode in ("euler", "zoh"):
            dp = discretize(dt, a, b, mode, runs=Runs.cached((5, 5)))
            assert np.all(dp.Abar.data > 0.0)
            assert np.all(dp.Abar.data < 1.0)


class TestRecurrentScan:
    def test_zero_input(self):
        dt, a, b, c, runs = _const_params(0.3, -1.0, 1.0, 1.0, m=4, e=2, n=3)
        dp = discretize(dt, a, b, "euler", runs=runs)
        y = selective_scan_recurrent(Tensor(np.zeros((4, 2))), dp, c)
        assert np.array_equal(y.data, np.zeros((4, 2)))

    def test_single_step_fixture(self):
        # Abar=0.5, Bbar=1, C=3, x=[2] -> h=2, y=6
        dt = Tensor(np.full((1, 1), 1.0))
        a = Tensor([[math.log(0.5)]])  # exp(dt * a) = 0.5
        dp = discretize(dt, a, Tensor([[1.0]]), "euler", runs=Runs.cached((1,)))
        y = selective_scan_recurrent(Tensor([[2.0]]), dp, Tensor([[3.0]]))
        assert abs(y.data.ravel()[0] - 6.0) < 1e-12

    def test_two_step_fixture(self):
        # h2 = 0.5*2 + 2 = 3, y2 = 9
        dt = Tensor(np.full((2, 1), 1.0))
        a = Tensor([[math.log(0.5)]])
        b = Tensor(np.full((2, 1), 1.0))
        c = Tensor(np.full((2, 1), 3.0))
        dp = discretize(dt, a, b, "euler", runs=Runs.cached((2,)))
        y = selective_scan_recurrent(Tensor(np.full((2, 1), 2.0)), dp, c)
        assert np.max(np.abs(y.data.ravel() - [6.0, 9.0])) < 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        b, m, e, n = 2, 11, 3, 4
        dt = rng.uniform(0.05, 0.8, size=(b, m, e))
        a = Tensor(-np.exp(rng.normal(size=(e, n))))
        bp = rng.normal(size=(b, m, n))
        cp = rng.normal(size=(b, m, n))
        x = rng.normal(size=(b, m, e))
        dtf, bpf, cpf, xf, runs = flat_runs(dt, bp, cp, x)
        dp = discretize(dtf, a, bpf, "euler", runs=runs)
        y = selective_scan_recurrent(xf, dp, cpf).data
        ref = oracle.scan_recurrence(x, dp.Abar.data.reshape(b, m, e, n), dp.Bbar.data.reshape(b, m, e, n), cp)
        assert np.max(np.abs(y - ref.reshape(y.shape))) < 1e-12


class TestLtiKernel:
    def test_memoryless(self):
        k = lti_kernel(np.zeros((2, 3)), np.full((2, 3), 0.5), np.ones(3), 4)
        assert np.array_equal(k[:, 0], [1.5, 1.5])
        assert np.array_equal(k[:, 1:], np.zeros((2, 3)))

    def test_geometric_powers(self):
        k = lti_kernel(np.full((1, 1), 0.5), np.ones((1, 1)), np.ones(1), 3)
        assert np.array_equal(k[0], [1.0, 0.5, 0.25])

    def test_impulse_response_equals_kernel(self):
        k = lti_kernel(np.full((1, 1), 0.5), np.ones((1, 1)), np.ones(1), 3)
        x = np.zeros((1, 3, 1))
        x[0, 0, 0] = 1.0
        y = apply_lti_kernel(x, k)
        assert np.max(np.abs(y[0, :, 0] - k[0])) < 1e-15

    def test_lti_equivalence_randomized(self):
        # recurrent scan == convolution with the kernel, M <= 64, E,N <= 8
        rng = np.random.default_rng(2)
        for _ in range(25):
            m = int(rng.integers(1, 65))
            e = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            a = -np.exp(rng.normal(size=(e, n)))
            d0 = rng.uniform(0.05, 0.5, size=e)
            b0 = rng.normal(size=n)
            c0 = rng.normal(size=n)
            x = rng.normal(size=(m, e))
            dp = discretize(
                Tensor(np.broadcast_to(d0, (m, e)).copy()),
                Tensor(a),
                Tensor(np.broadcast_to(b0, (m, n)).copy()),
                "zoh",
                runs=Runs.cached((m,)),
            )
            y = selective_scan_recurrent(
                Tensor(x), dp, Tensor(np.broadcast_to(c0, (m, n)).copy())
            ).data
            kern = lti_kernel(dp.Abar.data[0], dp.Bbar.data[0], c0, m)
            conv = apply_lti_kernel(x[None], kern)[0]
            assert np.max(np.abs(y - conv)) < 1e-8


class TestParallelScan:
    def test_single_element(self):
        dt, a, b, c, runs = _const_params(0.4, -0.5, 1.0, 2.0, m=1, e=2, n=2)
        dp = discretize(dt, a, b, "euler", runs=runs)
        x = Tensor(np.random.default_rng(3).normal(size=(1, 2)))
        yr = selective_scan_recurrent(x, dp, c).data
        yp = selective_scan_parallel(x, dp, c).data
        assert np.array_equal(yr, yp)

    def test_matches_recurrent_random(self):
        rng = np.random.default_rng(4)
        for mode, m in itertools.product(("euler", "zoh"), (2, 3, 5, 8, 13, 31, 64)):
            b, e, n = 2, 3, 4
            dt = rng.uniform(0.05, 0.8, size=(b, m, e))
            a = Tensor(-np.exp(rng.normal(size=(e, n))))
            bp = rng.normal(size=(b, m, n))
            cp = rng.normal(size=(b, m, n))
            x = rng.normal(size=(b, m, e))
            dt, bp, cp, x, runs = flat_runs(dt, bp, cp, x)
            dp = discretize(dt, a, bp, mode, runs=runs)
            yr = selective_scan_recurrent(x, dp, cp).data
            yp = selective_scan_parallel(x, dp, cp).data
            assert np.max(np.abs(yr - yp)) <= 1e-10

    @pytest.mark.parametrize("mode", ["euler", "zoh"])
    def test_matches_recurrent_on_ragged_runs(self, mode):
        """Runs of different lengths in one call, given in any order: each
        run starts from a zero state on both routes."""
        lengths = [5, 1, 13, 8, 8]
        ts = {k: Tensor(v) for k, v in _vals(np.random.default_rng(8), 1, sum(lengths), 3, 4).items()}
        runs = Runs.cached(tuple(lengths))
        yr = _fused(ts, mode, runs).data
        yp = _fused(ts, mode, runs, selective_scan_parallel).data
        assert np.max(np.abs(yr - yp)) <= 1e-10

    def test_operator_random_bracketing(self):
        # any bracketing of the associative operator reproduces the
        # sequential recurrence
        rng = np.random.default_rng(5)
        m = 17
        elems = [(rng.uniform(0.1, 0.9, size=3), rng.normal(size=3)) for _ in range(m)]

        def fold(lo, hi):
            if hi - lo == 1:
                return elems[lo]
            cut = int(rng.integers(lo + 1, hi))
            return oracle.scan_operator_combine(fold(lo, cut), fold(cut, hi))

        h = np.zeros(3)
        for a_t, b_t in elems:
            h = a_t * h + b_t
        for _ in range(10):
            _, b_comp = fold(0, m)
            assert np.max(np.abs(b_comp - h)) <= 1e-10


class TestRunSsm:
    def test_bundled_params_match_explicit_route(self):
        """The DiscreteParams bundle from a zoh discretize, as ScanBranch
        builds it, reproduces the zoh recurrence written out by hand, on
        the recurrent route and the parallel route alike."""
        rng = np.random.default_rng(9)
        b, m, e, n = 1, 7, 2, 3
        a = -np.exp(rng.normal(size=(e, n)))
        delta = rng.uniform(0.05, 0.6, size=(b, m, e))
        bp = rng.normal(size=(b, m, n))
        cp = rng.normal(size=(b, m, n))
        x = rng.normal(size=(b, m, e))
        delta_f, bp_f, cp_f, x_f, runs = flat_runs(delta, bp, cp, x)
        dp = discretize(delta_f, Tensor(a), bp_f, "zoh", runs=runs)
        y = selective_scan_recurrent(x_f, dp, cp_f).data.reshape(b, m, e)
        ref = np.zeros((b, m, e))
        for i in range(b):
            h = np.zeros((e, n))
            for t in range(m):
                abar = np.exp(delta[i, t][:, None] * a)
                bbar = (abar - 1.0) / a * bp[i, t][None, :]
                h = abar * h + bbar * x[i, t][:, None]
                ref[i, t] = h @ cp[i, t]
        assert np.max(np.abs(y - ref)) <= 1e-12
        yp = selective_scan_parallel(x_f, dp, cp_f).data
        assert np.max(np.abs(yp.reshape(y.shape) - y)) <= 1e-10


class TestStability:
    def test_bounded_state_4096(self):
        rng = np.random.default_rng(6)
        m, e, n = 4096, 2, 3
        dt = Tensor(rng.uniform(0.01, 1.0, size=(m, e)))
        a = Tensor(-np.exp(rng.normal(size=(e, n))))
        bp = Tensor(rng.normal(size=(m, n)))
        cp = Tensor(rng.normal(size=(m, n)))
        x = rng.normal(size=(m, e))
        dp = discretize(dt, a, bp, "euler", runs=Runs.cached((m,)))
        y = selective_scan_recurrent(Tensor(x), dp, cp).data
        assert np.all(np.isfinite(y))
        bx = dp.Bbar.data * x[..., None]
        bound = np.max(np.abs(bx)) / (1.0 - np.max(dp.Abar.data))
        # |h_t| <= max|Bbar x| / (1 - max Abar); y = <C, h>
        h_implied = np.max(np.abs(y)) / max(1e-12, np.max(np.sum(np.abs(cp.data), axis=-1)))
        assert h_implied <= bound + 1e-9


class TestScanGradient:
    def test_full_scan_gradient(self):
        rng = np.random.default_rng(7)
        m, e, n = 6, 2, 3
        a = Tensor(-np.exp(rng.normal(size=(e, n))), requires_grad=True)
        dt = Tensor(rng.uniform(0.1, 0.7, size=(m, e)), requires_grad=True)
        bp = Tensor(rng.normal(size=(m, n)), requires_grad=True)
        cp = Tensor(rng.normal(size=(m, n)), requires_grad=True)
        x = Tensor(rng.normal(size=(m, e)), requires_grad=True)

        def f():
            dp = discretize(dt, a, bp, "euler", runs=Runs.cached((m,)))
            return tsum(silu(selective_scan_recurrent(x, dp, cp)))

        err = grad_check(f, [("A", a), ("d", dt), ("B", bp), ("C", cp), ("x", x)], h=1e-6)
        assert err <= 1e-5


class TestFusedScan:
    """The fused scan node against the unfused tape composition it
    replaced (tests/_oracles.py), on outputs and all five input gradients.
    The parallel route is forward only: it must match the oracle's output
    and record no node although every input requires a gradient."""

    SLAB = 4  # time steps per slab, set through the byte budget

    @staticmethod
    def _run(vals, fn, weight):
        ts = {k: Tensor(v.copy(), requires_grad=True) for k, v in vals.items()}
        y = fn(ts)
        tsum(silu(y) * Tensor(weight)).backward()
        return [y.data] + [ts[k].grad for k in ("x", "delta", "A", "Bproj", "Cproj")]

    @pytest.mark.parametrize("mode", ["euler", "zoh"])
    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("m", [1, SLAB - 1, SLAB, SLAB + 1, 3 * SLAB + 2])
    def test_matches_unfused_oracle(self, monkeypatch, mode, parallel, m):
        b, e, n = 3, 5, 4
        monkeypatch.setattr(ssm, "SLAB_BYTES", self.SLAB * 8 * b * e * n)
        rng = np.random.default_rng(100 + m)
        vals = _vals(rng, b, m, e, n)
        weight = rng.normal(size=(b * m, e))
        runs = Runs.cached((m,) * b)
        ref = self._run(vals, lambda ts: _unfused(ts, mode, b), weight)
        if parallel:
            ts = {k: Tensor(v.copy(), requires_grad=True) for k, v in vals.items()}
            y = _fused(ts, mode, runs, selective_scan_parallel)
            assert not y.requires_grad and y._parents == () and y._backward is None
            assert np.max(np.abs(y.data - ref[0])) <= 1e-12 * np.max(np.abs(ref[0]))
            return
        got = self._run(vals, lambda ts: _fused(ts, mode, runs), weight)
        for name, g, r in zip(("y", "x", "delta", "A", "Bproj", "Cproj"), got, ref):
            assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r)), name

    def test_one_node_holds_no_step_operators(self):
        """The scan is one node whose parents are the five sources, and the
        step operators from discretize stay off the tape."""
        rng = np.random.default_rng(3)
        b, m, e, n = 2, 6, 3, 4
        x, delta, bp, cp = (Tensor(rng.normal(size=s), requires_grad=True)
                            for s in ((b * m, e), (b * m, e), (b * m, n), (b * m, n)))
        a = Tensor(-np.exp(rng.normal(size=(e, n))), requires_grad=True)
        dp = discretize(delta, a, bp, "zoh", runs=Runs.cached((m,) * b))
        assert not dp.Abar.requires_grad and not dp.Bbar.requires_grad
        y = selective_scan_recurrent(x, dp, cp)
        assert y._parents == (x, delta, a, bp, cp)

    def test_no_grad_records_nothing(self):
        rng = np.random.default_rng(4)
        b, m, e, n = 2, 6, 3, 4
        x = Tensor(rng.normal(size=(b * m, e)), requires_grad=True)
        delta = Tensor(rng.uniform(0.1, 0.5, size=(b * m, e)), requires_grad=True)
        a = Tensor(-np.exp(rng.normal(size=(e, n))), requires_grad=True)
        bp = Tensor(rng.normal(size=(b * m, n)), requires_grad=True)
        cp = Tensor(rng.normal(size=(b * m, n)), requires_grad=True)
        runs = Runs.cached((m,) * b)
        with_grad = selective_scan_recurrent(x, discretize(delta, a, bp, "euler", runs=runs), cp)
        with no_grad():
            y = selective_scan_recurrent(x, discretize(delta, a, bp, "euler", runs=runs), cp)
        assert not y.requires_grad and y._backward is None and y._parents == ()
        assert np.array_equal(y.data, with_grad.data)


class TestLeanScan:
    """Abar and Bbar leave discretize: dp.Abar and dp.Bbar are computed on
    first read for the cross-checks, the recurrent scan reads neither, and
    one scan call holds only slab-sized (S, B, N, E) buffers."""

    @pytest.mark.parametrize("mode", ["euler", "zoh"])
    def test_bbar_matches_unfused_bit_for_bit(self, mode):
        vals = _vals(np.random.default_rng(11), 2, 5, 3, 4)
        ts = {k: Tensor(v) for k, v in vals.items()}
        dp = discretize(ts["delta"], ts["A"], ts["Bproj"], mode, runs=Runs.cached((5, 5)))
        delta, bproj = (reshape(ts[k], (2, 5, -1)) for k in ("delta", "Bproj"))
        abar, bbar = oracle.unfused_discretize(delta, ts["A"], bproj, mode)
        assert np.array_equal(dp.Abar.data, abar.data.reshape(dp.Abar.shape))
        assert np.array_equal(dp.Bbar.data, bbar.data.reshape(dp.Bbar.shape))

    @pytest.mark.parametrize("mode", ["euler", "zoh"])
    def test_scan_never_computes_bbar(self, monkeypatch, mode):
        b, m, e, n = 2, 9, 3, 4
        monkeypatch.setattr(ssm, "SLAB_BYTES", 2 * 8 * b * e * n)
        vals = _vals(np.random.default_rng(12), b, m, e, n)
        ts = {k: Tensor(v, requires_grad=True) for k, v in vals.items()}
        dp = discretize(ts["delta"], ts["A"], ts["Bproj"], mode, runs=Runs.cached((m,) * b))
        tsum(selective_scan_recurrent(ts["x"], dp, ts["Cproj"])).backward()
        assert ts["A"].grad is not None
        assert "Abar" not in vars(dp) and "Bbar" not in vars(dp)

    @settings(max_examples=40)
    @given(b=st.integers(1, 3), m=st.integers(1, 13), e=st.integers(1, 5), n=st.integers(1, 4),
           slab=st.integers(1, 5), mode=st.sampled_from(["euler", "zoh"]))
    def test_matches_unfused_oracle_on_ragged_slabs(self, b, m, e, n, slab, mode):
        rng = np.random.default_rng([b, m, e, n, slab])
        vals = _vals(rng, b, m, e, n)
        weight = rng.normal(size=(b * m, e))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ssm, "SLAB_BYTES", slab * 8 * b * e * n)
            got = TestFusedScan._run(vals, lambda ts: _fused(ts, mode, Runs.cached((m,) * b)), weight)
        ref = TestFusedScan._run(vals, lambda ts: _unfused(ts, mode, b), weight)
        for name, g, r in zip(("y", "x", "delta", "A", "Bproj", "Cproj"), got, ref):
            assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r)), name

    @pytest.mark.parametrize("mode", ["euler", "zoh"])
    def test_forward_chunks_within_slabs(self, monkeypatch, mode):
        """Forward chunks of 1, 2 and 3 steps inside 5-step slabs over 12
        steps give the output and gradients of whole-slab chunks, bit for
        bit: chunking changes where the forward pauses, not its arithmetic."""
        b, m, e, n = 2, 12, 3, 4
        step_bytes = 8 * b * e * n
        monkeypatch.setattr(ssm, "SLAB_BYTES", 5 * step_bytes)
        vals = _vals(np.random.default_rng(14), b, m, e, n)
        weight = np.random.default_rng(15).normal(size=(b * m, e))
        runs = Runs.cached((m,) * b)
        results = []
        for chunk in (5, 1, 2, 3):
            monkeypatch.setattr(ssm, "CHUNK_BYTES", chunk * step_bytes)
            results.append(TestFusedScan._run(vals, lambda ts: _fused(ts, mode, runs), weight))
        for got in results[1:]:
            for name, g, r in zip(("y", "x", "delta", "A", "Bproj", "Cproj"), got, results[0]):
                assert np.array_equal(g, r), name

    @pytest.mark.parametrize("mode", ["euler", "zoh"])
    def test_peak_allocation(self, monkeypatch, mode):
        """Peak traced allocation of discretize + forward + backward on
        8 slabs of 8 steps stays under the (B, M, E)- and (B, M, N)-sized
        output and gradients and eight slab buffers; no (B, M, E, N)
        array is formed. The slab buffers cover backward's Abar, state,
        adjoint and zoh q buffers (3 1/8 euler, 4 1/8 zoh), the eight
        (B, N, E) slab checkpoints (one more), the time-major copies of x,
        delta, g, Bproj and Cproj (1 5/8), and the small per-slab
        temporaries and numpy iteration buffers. Measured: 6.5 (euler)
        and 7.4 (zoh) slab buffers. While discretize still built the full
        Abar, the peak was that array plus 5.7 (euler) and 6.7 (zoh) slab
        buffers; while it also built Bbar, discretize alone peaked at 2.06
        (euler) and 3.03 (zoh) full arrays, and the sequence at 16.8 and
        18.6 slab buffers beyond them."""
        b, m, e, n, step = 2, 64, 128, 16, 8
        monkeypatch.setattr(ssm, "SLAB_BYTES", step * 8 * b * e * n)
        vals = _vals(np.random.default_rng(13), b, m, e, n)
        ts = {k: Tensor(v, requires_grad=True) for k, v in vals.items()}
        runs = Runs.cached((m,) * b)
        g = np.ones((b * m, e))
        slab = 8 * b * step * e * n
        outputs = 8 * (3 * b * m * e + 2 * b * m * n)  # y, dx, ddelta, dBproj, dCproj
        tracemalloc.start()
        try:
            y = _fused(ts, mode, runs)
            y._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= outputs + 8 * slab, (peak - outputs) / slab


class TestKeptChunk:
    """A recorded scan whose steps all fit one forward chunk keeps that
    chunk's packed inputs and its Abar and state buffers for backward,
    which then neither packs them again nor recomputes them."""

    @pytest.mark.parametrize("mode", ["euler", "zoh"])
    def test_kept_path_matches_recompute_path(self, monkeypatch, mode):
        """The same ragged call as one chunk (kept), as one slab of 1-step
        forward chunks and on 2-step slabs (both recomputed): y and the
        input gradients bit for bit. Only dA, summed slab by slab, may
        round differently on several slabs. The kept path forms Abar and
        the states once, in forward."""
        lengths, e, n = [7, 3, 7, 5], 3, 2
        rng = np.random.default_rng(21)
        vals = _vals(rng, 1, sum(lengths), e, n)
        weight = rng.normal(size=(sum(lengths), e))
        runs = Runs(lengths)
        fills = []
        states = ssm._slab_states
        monkeypatch.setattr(ssm, "_slab_states", lambda *a: fills.append(a[1].shape[0]) or states(*a))
        kept = TestFusedScan._run(vals, lambda ts: _fused(ts, mode, runs), weight)
        assert fills == [runs.rows]
        step_bytes = 8 * len(lengths) * e * n
        monkeypatch.setattr(ssm, "CHUNK_BYTES", step_bytes)
        for slab, slabs in ((max(lengths), 1), (2, 4)):
            monkeypatch.setattr(ssm, "SLAB_BYTES", slab * step_bytes)
            fills.clear()
            got = TestFusedScan._run(vals, lambda ts: _fused(ts, mode, runs), weight)
            assert len(fills) == max(lengths) + slabs  # forward per chunk, backward per slab
            for name, g, r in zip(("y", "x", "delta", "A", "Bproj", "Cproj"), got, kept):
                if name == "A" and slabs > 1:
                    assert np.max(np.abs(g - r)) <= 1e-14 * np.max(np.abs(r))
                else:
                    assert np.array_equal(g, r), (name, slabs)

    @settings(max_examples=40)
    @given(mode=st.sampled_from(ssm.DISCRETIZE_MODES),
           lengths=st.lists(st.integers(1, 9), min_size=1, max_size=5).filter(lambda s: max(s) > 1),
           data=st.data(), seed=st.integers(0, 2**16))
    def test_kept_path_matches_recompute_path_on_random_runs(self, mode, lengths, data, seed):
        """The rule above over random runs and budgets: a call kept as one
        chunk against the same call on s-step slabs of c-step forward chunks,
        c < M (recomputed), for M the longest run."""
        e, n, m = 3, 2, max(lengths)
        slab, chunk = data.draw(st.integers(1, m), label="slab"), data.draw(st.integers(1, m - 1), label="chunk")
        rng = np.random.default_rng(seed)
        vals = _vals(rng, 1, sum(lengths), e, n)
        weight = rng.normal(size=(sum(lengths), e))
        runs = Runs(lengths)
        fills = []
        states = ssm._slab_states
        step_bytes = 8 * len(lengths) * e * n
        with mock.patch.object(ssm, "_slab_states", lambda *a: fills.append(a[1].shape[0]) or states(*a)):
            kept = TestFusedScan._run(vals, lambda ts: _fused(ts, mode, runs), weight)
            assert fills == [runs.rows]
            fills.clear()
            with mock.patch.multiple(ssm, SLAB_BYTES=slab * step_bytes, CHUNK_BYTES=chunk * step_bytes):
                got = TestFusedScan._run(vals, lambda ts: _fused(ts, mode, runs), weight)
        assert len(fills) > 1  # forward per chunk, backward per slab
        for name, g, r in zip(("y", "x", "delta", "A", "Bproj", "Cproj"), got, kept):
            if name == "A" and slab < m:
                assert np.max(np.abs(g - r)) <= 1e-14 * np.max(np.abs(r))
            else:
                assert np.array_equal(g, r), name


class TestFlatRuns:
    """Flat runs scanned with ``discretize(..., runs=)`` against one scan
    per run: y and all five gradients, with runs given in any order (the
    scan packs them longest first) and slabs and chunks that end where
    runs do and in between."""

    @pytest.mark.parametrize("mode", ["euler", "zoh"])
    @pytest.mark.parametrize("lengths, slab, chunk", [
        ([7, 4, 7, 1], 7, 7),  # one slab, one chunk
        ([2, 9, 6, 1, 6], 2, 1),  # runs end on slab and chunk edges
        ([3, 11, 5, 8], 4, 3),  # runs end inside slabs and chunks
        ([6, 6], 2, 1),  # equal runs
        ([1], 1, 1),
    ])
    def test_matches_per_run_scans(self, monkeypatch, mode, lengths, slab, chunk):
        e, n = 3, 2
        step_bytes = 8 * len(lengths) * e * n  # one step with every run going
        monkeypatch.setattr(ssm, "SLAB_BYTES", slab * step_bytes)
        monkeypatch.setattr(ssm, "CHUNK_BYTES", chunk * step_bytes)
        rng = np.random.default_rng(lengths)
        vals = {k: v for k, v in _vals(rng, 1, sum(lengths), e, n).items() if k != "A"}
        vals["A"] = -np.exp(rng.normal(size=(e, n)))
        weight = rng.normal(size=(sum(lengths), e))

        got = TestFusedScan._run(vals, lambda ts: _fused(ts, mode, Runs(lengths)), weight)
        want = [np.empty_like(g) for g in got]
        want[3] = 0.0
        for lo, hi in zip(np.cumsum([0] + lengths[:-1]), np.cumsum(lengths)):
            run = {k: v if k == "A" else v[lo:hi] for k, v in vals.items()}
            ref = TestFusedScan._run(run, lambda ts: _fused(ts, mode, Runs([hi - lo])), weight[lo:hi])
            for i, r in enumerate(ref):
                if i == 3:
                    want[3] = want[3] + r  # dA sums over runs
                else:
                    want[i][lo:hi] = r
        for name, g, w in zip(("y", "x", "delta", "A", "Bproj", "Cproj"), got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), name

    def test_runs_must_cover_rows(self):
        ts = {k: Tensor(v) for k, v in _vals(np.random.default_rng(6), 1, 6, 2, 2).items()}
        with pytest.raises(ShapeError, match="discretize: runs cover 7 rows, input has 6"):
            discretize(ts["delta"], ts["A"], ts["Bproj"], runs=Runs([4, 3]))
        dp = ssm.DiscreteParams(ts["delta"], ts["A"], ts["Bproj"], "euler", Runs([4, 3]))
        with pytest.raises(ShapeError, match="scan: runs cover 7 rows, input has 6"):
            selective_scan_recurrent(ts["x"], dp, ts["Cproj"])

    def test_a_batch_is_refused(self):
        """A (B, M, .) batch is not an input form: discretize and the scan
        each name themselves."""
        vals = _vals(np.random.default_rng(5), 2, 3, 2, 3)
        ts = {k: Tensor(v if k == "A" else v.reshape(2, 3, -1)) for k, v in vals.items()}
        with pytest.raises(ShapeError, match=r"discretize: expected flat \(L, E\) rows, got delta \(2, 3, 2\)"):
            discretize(ts["delta"], ts["A"], ts["Bproj"], runs=Runs([3, 3]))
        dp = discretize(Tensor(vals["delta"]), ts["A"], Tensor(vals["Bproj"]), runs=Runs([3, 3]))
        with pytest.raises(ShapeError, match=r"scan: expected flat \(L, E\) rows, got x \(2, 3, 2\)"):
            selective_scan_recurrent(ts["x"], dp, Tensor(vals["Cproj"]))


def test_gradsuite_scan_checks():
    """The gradient suite's scan checks (euler and zoh, B = 2), which the
    quick tier otherwise reaches only through criterion 2."""
    for name, err, bound in check_scan():
        assert err <= bound, (name, err)


@pytest.mark.parametrize("kwargs, arg", [
    (dict(lengths=[8], reps=0), "reps"), (dict(lengths=[0]), "lengths"), (dict(lengths=[-3]), "lengths"),
    (dict(lengths=[8, 2.5]), "lengths"), (dict(lengths=[8], channels=0), "channels"),
    (dict(lengths=[8], state=0), "state"), (dict(lengths=[8], reduce="max"), "reduce"),
])
def test_bench_scan_bad_argument_is_a_config_error(kwargs, arg):
    """Each bad argument raises ConfigError naming bench_scan and the
    argument, before any scan runs (reps=0 used to return NaN seconds,
    channels=0 to divide by zero, a length of 0 to fail in Runs)."""
    with pytest.raises(ConfigError, match=f"^bench_scan: {arg} "):
        ssm.bench_scan(**kwargs)
