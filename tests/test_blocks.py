"""Composite blocks against straight-line oracle transcriptions, plus
the construction identities and symmetry properties."""

import re
import tracemalloc

import numpy as np
import pytest

import survmamba.blocks as blocks
import survmamba.ssm as ssm
from survmamba.blocks import BiMambaBlock, IFMBlock, ScanBranch
from survmamba.errors import ShapeError
from survmamba.gradsuite import check_blocks
from survmamba.numerics import Runs, Tensor, grad_check, no_grad, silu, tmean, tsum

import _oracles as oracle
from _oracles import flat_runs


def _randomized_bimamba(seed=1, noise=201, d=3, e=4, n=2, w=2):
    blk = BiMambaBlock(d, e, n, w, rng=np.random.default_rng(seed))
    prng = np.random.default_rng(noise)
    for _, p in blk.named_parameters():
        p.data += prng.normal(scale=0.5, size=p.shape)
    return blk


def _randomized_ifm(seed=4, noise=304, d=3, e=4, n=2, w=2):
    blk = IFMBlock(d, e, n, w, rng=np.random.default_rng(seed))
    prng = np.random.default_rng(noise)
    for _, p in blk.named_parameters():
        p.data += prng.normal(scale=0.5, size=p.shape)
    return blk


@pytest.mark.parametrize("block", [BiMambaBlock, IFMBlock])
def test_blocks_take_e_expand_and_a_keyword_rng(block):
    """The expansion width and the generator have no defaults (the 2 * d
    rule lives in ModelConfig.resolved_e), and rng is keyword-only."""
    rng = np.random.default_rng(0)
    for args, kwargs in [((4,), {"rng": rng}), ((4, 8), {}), ((4, 8, 2, 2, rng), {})]:
        with pytest.raises(TypeError):
            block(*args, **kwargs)
    assert block(4, 8, rng=rng).e_expand == 8


class TestBiMamba:
    def test_fresh_block_is_exact_identity(self):
        blk = BiMambaBlock(4, 8, 2, 2, rng=np.random.default_rng(0))
        x, runs = flat_runs(np.random.default_rng(1).normal(size=(2, 6, 4)))
        out = blk(x, runs)
        assert np.array_equal(out.data, x.data)

    def test_length_one_tied_directions(self):
        # a single token has no order: with tied direction parameters,
        # both directions produce the same contribution
        blk = _randomized_bimamba()
        blk.bwd = blk.fwd
        x = Tensor(np.random.default_rng(2).normal(size=(1, 3)))
        normed = blk.norm(x)
        xe = blk.linear_x(normed)
        y_f = blk.fwd(xe, Runs([1]))
        y_b = blk.bwd(xe, Runs([1]))
        assert np.array_equal(y_f.data, y_b.data)

    def test_prebuilt_runs_build_and_check_nothing(self, monkeypatch):
        """A block call on a prebuilt Runs, forward and backward, builds no
        Runs, and so validates no group sizes: the layout is built once per
        sequence set, not per call."""
        blk = _randomized_bimamba()
        runs = Runs([3, 1, 4])
        calls = []
        init = Runs.__init__
        monkeypatch.setattr(Runs, "__init__", lambda self, *a: calls.append("Runs") or init(self, *a))
        tokens = Tensor(np.random.default_rng(3).normal(size=(8, 3)), requires_grad=True)
        tsum(blk(tokens, runs)).backward()
        assert calls == [] and tokens.grad is not None
        Runs([2])
        assert calls == ["Runs"]  # the spy is live

    def test_runs_must_cover_tokens(self):
        with pytest.raises(ShapeError, match="bi-mamba: runs cover 7 rows, input has 8"):
            _randomized_bimamba()(Tensor(np.zeros((8, 3))), Runs([3, 4]))

    def test_matches_straight_line_oracle_ones(self):
        blk = BiMambaBlock(4, 8, 2, 2, rng=np.random.default_rng(42))
        prng = np.random.default_rng(43)
        for _, p in blk.named_parameters():
            p.data += prng.normal(scale=0.4, size=p.shape)
        x = np.ones((1, 5, 4))
        mine = blk(*flat_runs(x)).data
        ref = oracle.bimamba_forward(blk, x)
        assert np.max(np.abs(mine - ref.reshape(mine.shape))) < 1e-12

    def test_matches_oracle_zoh_random_input(self):
        blk = BiMambaBlock(3, 6, 3, 3, rng=np.random.default_rng(44), disc_mode="zoh")
        prng = np.random.default_rng(45)
        for _, p in blk.named_parameters():
            p.data += prng.normal(scale=0.4, size=p.shape)
        x = prng.normal(size=(2, 7, 3))
        mine = blk(*flat_runs(x)).data
        ref = oracle.bimamba_forward(blk, x)
        assert np.max(np.abs(mine - ref.reshape(mine.shape))) < 1e-12

    def test_direction_symmetry(self):
        # swapping the direction parameter sets and reversing the input
        # reverses the output
        blk = _randomized_bimamba()
        x = np.random.default_rng(3).normal(size=(2, 6, 3))
        out = blk(*flat_runs(x)).data.reshape(x.shape)
        blk.fwd, blk.bwd = blk.bwd, blk.fwd
        out_swapped = blk(*flat_runs(np.flip(x, 1))).data.reshape(x.shape)
        assert np.max(np.abs(out_swapped - np.flip(out, 1))) <= 1e-10

    def test_output_shape_matches_input(self):
        blk = _randomized_bimamba()
        for sizes in ([1], [9, 9], [4, 1, 7]):
            x = Tensor(np.random.default_rng(4).normal(size=(sum(sizes), 3)))
            assert blk(x, Runs(sizes)).shape == x.shape

    def test_dim_mismatch_raises(self):
        """Tokens of the wrong dim, or a (B, M, D) batch, which is not an
        input form even with runs that would cover its rows."""
        blk = _randomized_bimamba()
        for shape, runs in [((4, 5), Runs([4])), ((2, 4, 3), Runs([4, 4]))]:
            with pytest.raises(ShapeError, match=rf"bi-mamba: expected flat \(L, 3\) tokens, got {re.escape(str(shape))}"):
                blk(Tensor(np.zeros(shape)), runs)

    def test_gradient(self):
        blk = _randomized_bimamba()
        blk.fwd.delta_bias.data += 1.5
        blk.bwd.delta_bias.data += 1.5
        x = Tensor(np.random.default_rng(201).normal(size=(5, 3)))
        runs = Runs([5])
        err = grad_check(lambda: tmean(silu(blk(x, runs))), list(blk.named_parameters()), h=2e-5)
        assert err <= 1e-5


class TestIFM:
    def test_fresh_block_outputs_exact_zero(self):
        blk = IFMBlock(4, 8, 2, 2, rng=np.random.default_rng(5))
        rng = np.random.default_rng(6)
        out = blk(Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(5, 4))), Runs([5]))
        assert np.array_equal(out.data, np.zeros((5, 4)))

    def test_closed_gate_zeroes_branch(self):
        # zero z-weights with a very negative bias close SiLU(z2), so the
        # modality-1 branch contributes exactly nothing
        blk = _randomized_ifm()
        blk.linear_out.weight.data[:] = 0.0
        e = blk.e_expand
        blk.linear_out.weight.data[:e, :] = np.random.default_rng(7).normal(size=(e, 3))
        blk.linear_z.weight.data[:] = 0.0
        blk.linear_z.bias.data[:] = -1e4  # silu(-1e4) == 0 in float64
        rng = np.random.default_rng(8)
        out = blk(Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 3))), Runs([4])).data
        assert np.array_equal(out, np.broadcast_to(blk.linear_out.bias.data, out.shape))

    def test_matches_straight_line_oracle_ones(self):
        blk = _randomized_ifm()
        a = np.ones((1, 4, 3))
        b = np.ones((1, 4, 3))
        mine = blk(*flat_runs(a, b)).data
        ref = oracle.ifm_forward(blk, a, b)
        assert np.max(np.abs(mine - ref.reshape(mine.shape))) < 1e-12

    def test_matches_oracle_random(self):
        blk = _randomized_ifm(seed=9, noise=10)
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 6, 3))
        b = rng.normal(size=(2, 6, 3))
        mine = blk(*flat_runs(a, b)).data
        ref = oracle.ifm_forward(blk, a, b)
        assert np.max(np.abs(mine - ref.reshape(mine.shape))) < 1e-12

    def test_modality_slot_symmetry(self):
        # swapping inputs together with the per-modality parameter sets
        # (including the two halves of the output projection) is a no-op
        blk = _randomized_ifm()
        rng = np.random.default_rng(12)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(5, 3))
        runs = Runs([5])
        out = blk(Tensor(a), Tensor(b), runs).data
        e = blk.e_expand
        blk.m1, blk.m2 = blk.m2, blk.m1
        w = blk.linear_out.weight.data
        w[:] = np.concatenate([w[e:], w[:e]], axis=0)
        out_swapped = blk(Tensor(b), Tensor(a), runs).data
        assert np.max(np.abs(out - out_swapped)) <= 1e-10

    def test_unequal_lengths_raise(self):
        blk = _randomized_ifm()
        with pytest.raises(ShapeError, match="align"):
            blk(Tensor(np.zeros((4, 3))), Tensor(np.zeros((5, 3))), Runs([4]))

    def test_output_shape(self):
        blk = _randomized_ifm()
        x = Tensor(np.random.default_rng(13).normal(size=(14, 3)))
        y = Tensor(np.random.default_rng(14).normal(size=(14, 3)))
        assert blk(x, y, Runs([7, 7])).shape == (14, 3)

    def test_a_batch_or_uncovered_tokens_are_refused(self):
        blk = _randomized_ifm()
        with pytest.raises(ShapeError, match=r"ifm: expected flat \(L, 3\) tokens, got \(2, 4, 3\)"):
            blk(Tensor(np.zeros((2, 4, 3))), Tensor(np.zeros((2, 4, 3))), Runs([4, 4]))
        with pytest.raises(ShapeError, match="ifm: runs cover 7 rows, input has 8"):
            blk(Tensor(np.zeros((8, 3))), Tensor(np.zeros((8, 3))), Runs([3, 4]))

    def test_gradient(self):
        blk = _randomized_ifm()
        blk.m1.branch.delta_bias.data += 1.5
        blk.m2.branch.delta_bias.data += 1.5
        rng = np.random.default_rng(304)
        a = Tensor(rng.normal(size=(5, 3)))
        b = Tensor(rng.normal(size=(5, 3)))
        runs = Runs([5])
        err = grad_check(lambda: tmean(silu(blk(a, b, runs))), list(blk.named_parameters()), h=2e-5)
        assert err <= 1e-5


class TestScanBranchNode:
    """ScanBranch as one tape node against the composition of tape ops it
    replaced (tests/_oracles.py): the output and the gradients of x and of
    all nine parameters, bit for bit."""

    @staticmethod
    def _run(branch, call, x0, runs, weight):
        branch.zero_grad()
        x = Tensor(x0.copy(), requires_grad=True)
        y = call(x, runs)
        tsum(silu(y) * Tensor(weight)).backward()
        return [("y", y.data), ("x", x.grad)] + [(name, p.grad) for name, p in branch.named_parameters()]

    @staticmethod
    def _branch(rng, e, n, w, mode):
        branch = ScanBranch(e, n, w, rng, mode)
        for _, p in branch.named_parameters():
            p.data += rng.normal(scale=0.3, size=p.shape)
        return branch

    @pytest.mark.parametrize("mode", ["euler", "zoh"])
    @pytest.mark.parametrize("lengths, slab, chunk", [
        ((6, 6, 6), None, None),  # equal runs, B > 1, as one chunk: the kept path
        ((5, 1, 9, 3), None, None),  # ragged runs as one chunk
        ((2, 9, 6, 1, 6), 2, 1),  # slabs and chunks: the recompute path
        ((3, 11, 5, 8), 4, 3),
    ])
    def test_matches_composition_bit_for_bit(self, monkeypatch, mode, lengths, slab, chunk):
        e, n, w = 5, 3, 3
        if slab:
            step_bytes = 8 * len(lengths) * e * n  # one step with every run going
            monkeypatch.setattr(ssm, "SLAB_BYTES", slab * step_bytes)
            monkeypatch.setattr(ssm, "CHUNK_BYTES", chunk * step_bytes)
        rng = np.random.default_rng(list(lengths))
        branch = self._branch(rng, e, n, w, mode)
        runs = Runs(lengths)
        x0, weight = rng.normal(size=(runs.rows, e)), rng.normal(size=(runs.rows, e))
        got = self._run(branch, branch, x0, runs, weight)
        want = self._run(branch, lambda x, r: oracle.scan_branch_composition(branch, x, r), x0, runs, weight)
        assert len(got) == 11
        for (name, g), (_, r) in zip(got, want):
            assert np.array_equal(g, r), name

    def test_one_node_over_x_and_the_parameters(self):
        branch = self._branch(np.random.default_rng(2), 4, 2, 2, "euler")
        x = Tensor(np.random.default_rng(3).normal(size=(7, 4)), requires_grad=True)
        y = branch(x, Runs([4, 3]))
        assert len(y._parents) == 10 and y._parents[0] is x
        assert {id(p) for p in y._parents[1:]} == {id(p) for p in branch.parameters()}

    def test_no_grad_keeps_nothing(self, monkeypatch):
        """Under no_grad the branch output has no closure and the scan
        records none: past the call, the output is all the branch holds."""
        branch = self._branch(np.random.default_rng(4), 16, 4, 3, "zoh")
        scans = []
        scan = blocks.selective_scan_recurrent
        monkeypatch.setattr(blocks, "selective_scan_recurrent", lambda *a: scans.append(scan(*a)) or scans[-1])
        x = Tensor(np.random.default_rng(5).normal(size=(64, 16)), requires_grad=True)
        runs = Runs.cached((16,) * 4)
        with no_grad():
            branch(x, runs)  # the runs form their conv and packing indices on first use
        held = []
        for record in (False, True):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                if record:
                    y = branch(x, runs)
                else:
                    with no_grad():
                        y = branch(x, runs)
                held.append(tracemalloc.get_traced_memory()[0] - base - y.data.nbytes)
            finally:
                tracemalloc.stop()
            assert (y._backward is None) is not record and (scans[-1]._backward is None) is not record
        assert y._backward is not None and held[1] > 8 * y.data.nbytes  # the recorded node keeps its inputs
        assert y.data is scans[-1].data and held[0] < y.data.nbytes / 2, held  # no (L, E) array kept


class TestScanMemory:
    """Training memory of a BiMambaBlock at B=4, M=64, E=64, N=16, where one
    (B, M, E, N) float64 array is 2 MiB."""

    B, M, D, E = 4, 64, 32, 64

    def _traced(self, n):
        """(bytes the graph holds after forward, backward peak above that
        starting point) for a block with n state dims, grad enabled."""
        blk = BiMambaBlock(self.D, self.E, n, rng=np.random.default_rng(0))
        tokens = Tensor(np.random.default_rng(1).normal(size=(self.B * self.M, self.D)))
        runs = Runs.cached((self.M,) * self.B)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = tsum(blk(tokens, runs))
            graph = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            out.backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return graph, peak

    def test_graph_holds_no_state_array(self):
        # The part of the graph that grows with N: the scan keeps only the
        # (B, E, N) state entering each slab, far below one (B, M, E, N)
        # array (the unfused scan kept about 7.6 of them).
        full = 8 * self.B * self.M * self.E * 16
        assert self._traced(16)[0] - self._traced(1)[0] < full

    def test_backward_peak(self):
        # Backward recomputes a slab at a time: measured 7.1 arrays,
        # against 19.9 for the unfused scan.
        full = 8 * self.B * self.M * self.E * 16
        assert self._traced(16)[1] < 10 * full


def test_gradsuite_block_checks():
    """The gradient suite's block checks, which the quick tier otherwise
    reaches only through criterion 2."""
    for name, err, bound in check_blocks():
        assert err <= bound, (name, err)
