"""Bags, encoders, and the dual-level aggregation pipeline."""

import numpy as np
import pytest

from survmamba.blocks import BiMambaBlock
from survmamba.errors import DataError
from survmamba.hierarchy import (
    GenomicsEncoder,
    GroupingConfig,
    HierarchicalBag,
    HistologyEncoder,
    default_catalog,
    him_coarse,
    him_fine,
    make_grouping,
)
from survmamba.numerics import Tensor, concat, linear, silu, stack, tsum

import _oracles as oracle


def _block(seed, noise=None, d=3, e=4, n=2, w=2):
    blk = BiMambaBlock(d, e, n, w, rng=np.random.default_rng(seed))
    if noise is not None:
        prng = np.random.default_rng(noise)
        for _, p in blk.named_parameters():
            p.data += prng.normal(scale=0.4, size=p.shape)
    return blk


class TestBags:
    def test_empty_group_rejected(self):
        with pytest.raises(DataError):
            HierarchicalBag("histology", [("r0", np.zeros((0, 4)))])

    def test_mixed_dims_rejected(self):
        with pytest.raises(DataError, match="dims"):
            HierarchicalBag("histology", [("r0", np.zeros((2, 4))), ("r1", np.zeros((2, 5)))])

    def test_grouping_validation(self):
        with pytest.raises(DataError, match="unknown function"):
            GroupingConfig(processes=[("p0", ["f9"])], functions=[("f0", [0, 1])])
        with pytest.raises(DataError, match="no functions"):
            GroupingConfig(processes=[("p0", [])], functions=[("f0", [0])])

    def test_default_catalog_sizes(self):
        cfg = default_catalog()
        assert len(cfg.functions) == 352
        assert len(cfg.processes) == 42
        assert all(len(fids) >= 1 for _, fids in cfg.processes)

    def test_gene_shared_between_functions_allowed(self):
        cfg = GroupingConfig(
            processes=[("p0", ["f0", "f1"])],
            functions=[("f0", [0, 1]), ("f1", [1, 2])],
        )
        assert cfg.genes_of("f1") == [1, 2]


class TestGenomicsEncoder:
    def test_zero_network_gives_bias(self):
        cfg = GroupingConfig(processes=[("p0", ["f0"])], functions=[("f0", [0, 1])])
        enc = GenomicsEncoder(cfg, d_model=3, hidden=2, rng=np.random.default_rng(0))
        enc.set_function_mlp("f0", np.zeros((2, 2)), np.zeros(2), np.zeros((2, 3)), np.full(3, 1.5))
        groups = enc(np.array([4.0, 5.0]))
        assert len(groups) == 1
        assert np.array_equal(groups[0][1].data, [[1.5, 1.5, 1.5]])

    def test_shapes_follow_catalog(self):
        cfg = make_grouping(n_processes=2, functions_per_process=3, genes_per_function=2)
        cfg2 = GroupingConfig(
            processes=[(cfg.processes[0][0], cfg.processes[0][1]),
                       (cfg.processes[1][0], cfg.processes[1][1][:2])],
            functions=cfg.functions,
        )
        enc = GenomicsEncoder(cfg2, d_model=4, hidden=3, rng=np.random.default_rng(1))
        groups = enc(np.random.default_rng(2).normal(size=12))
        assert [g.shape for _, g in groups] == [(3, 4), (2, 4)]

    def test_hand_traced_mlp(self):
        # one function over genes [0, 2], one hidden unit, hand-set weights
        cfg = GroupingConfig(processes=[("p0", ["f0"])], functions=[("f0", [0, 2])])
        enc = GenomicsEncoder(cfg, d_model=2, hidden=1, rng=np.random.default_rng(3))
        w1 = np.array([[2.0], [1.0]])
        b1 = np.array([0.5])
        w2 = np.array([[1.0, -1.0]])
        b2 = np.array([0.25, 0.25])
        enc.set_function_mlp("f0", w1, b1, w2, b2)
        expr = np.array([1.0, 0.0, 2.0])
        pre = 2.0 * 1.0 + 1.0 * 2.0 + 0.5  # 4.5
        hid = oracle.silu(np.array([pre]))
        expect = np.array([hid[0] + 0.25, -hid[0] + 0.25])
        out = enc(expr)[0][1].data
        assert np.max(np.abs(out[0] - expect)) < 1e-12

    def test_gene_out_of_range_names_function(self):
        cfg = GroupingConfig(processes=[("p0", ["f7"])], functions=[("f7", [0, 5])])
        enc = GenomicsEncoder(cfg, d_model=2, hidden=2, rng=np.random.default_rng(4))
        with pytest.raises(DataError, match="f7"):
            enc(np.zeros(3))

    def test_ragged_widths_batch_correctly(self):
        cfg = GroupingConfig(
            processes=[("p0", ["f0", "f1", "f2"])],
            functions=[("f0", [0]), ("f1", [1, 2]), ("f2", [3])],
        )
        enc = GenomicsEncoder(cfg, d_model=2, hidden=2, rng=np.random.default_rng(5))
        out = enc(np.array([1.0, 2.0, 3.0, 4.0]))
        assert out[0][1].shape == (3, 2)


def _per_function_reference(enc, grouping, expr):
    """Each function's MLP run on its own, rows taken from the banks'
    parameters, stacked per process in catalog order."""
    widths = {}
    for fid, genes in grouping.functions:
        widths.setdefault(len(genes), []).append(fid)
    out = []
    for pid, fids in grouping.processes:
        rows = []
        for fid in fids:
            genes = grouping.genes_of(fid)
            bank = getattr(enc.banks, f"genes{len(genes)}")
            r = widths[len(genes)].index(fid)
            hid = silu(linear(Tensor(expr[genes][None]), bank.w1[r], bank.b1[r]))
            rows.append(linear(hid, bank.w2[r], bank.b2[r])[0])
        out.append((pid, stack(rows, axis=0)))
    return out


class TestGenomicsEncoderGather:
    RAGGED = GroupingConfig(
        processes=[("p0", ["f3", "f0"]), ("p1", ["f2"]), ("p2", ["f1", "f4", "f3"])],
        functions=[("f0", [0, 1]), ("f1", [2]), ("f2", [3, 4, 5]), ("f3", [1, 6]), ("f4", [7])],
    )

    @staticmethod
    def _outputs_and_grads(enc, groups, weight_seed=2):
        flat = concat([t for _, t in groups], axis=0)
        w = np.random.default_rng(weight_seed).normal(size=flat.shape)
        enc.zero_grad()
        tsum(flat * Tensor(w)).backward()
        return flat.data, {n: p.grad.copy() for n, p in enc.named_parameters()}

    def test_ragged_non_contiguous_matches_reference(self):
        """Widths 1, 2 and 3 in three banks, processes that interleave them
        and one function listed by two processes: outputs and gradients
        match running every function on its own."""
        g = self.RAGGED
        enc = GenomicsEncoder(g, d_model=4, hidden=3, rng=np.random.default_rng(0))
        expr = np.random.default_rng(1).normal(size=8)
        got = enc(expr)
        assert [pid for pid, _ in got] == ["p0", "p1", "p2"]
        out, grads = self._outputs_and_grads(enc, got)
        ref_out, ref_grads = self._outputs_and_grads(enc, _per_function_reference(enc, g, expr))
        assert np.max(np.abs(out - ref_out)) <= 1e-12 * np.max(np.abs(ref_out))
        for name, r in ref_grads.items():
            assert np.max(np.abs(grads[name] - r)) <= 1e-12 * np.max(np.abs(r)), name

    @pytest.mark.parametrize("grouping", [make_grouping(3, 4, 2), default_catalog(2)], ids=["uniform", "default"])
    def test_one_width_catalog_slices_one_bank_call(self, grouping):
        """With one width in catalog order there is no concatenation and no
        gather: each process holds exactly its rows of the bank's output."""
        enc = GenomicsEncoder(grouping, d_model=3, hidden=2, rng=np.random.default_rng(6))
        (bank, gene_idx), = enc._banks
        assert enc._order is None
        expr = np.random.default_rng(7).normal(size=grouping.n_genes)
        whole = bank(Tensor(expr[gene_idx])).data
        lo = 0
        for (pid, toks), (want, fids) in zip(enc(expr), grouping.processes):
            assert pid == want and np.array_equal(toks.data, whole[lo : lo + len(fids)])
            lo += len(fids)
        assert lo == len(grouping.functions)


class TestHistologyEncoder:
    def test_identity_projection(self):
        enc = HistologyEncoder(2, 2, rng=np.random.default_rng(6))
        enc.proj.weight.data[:] = np.eye(2)
        enc.proj.bias.data[:] = 0.0
        bag = HierarchicalBag("histology", [("r0", np.array([[1.0, 2.0], [3.0, 4.0]]))])
        out = enc(bag)
        assert np.array_equal(out[0][1].data, bag.groups[0][1])

    def test_shape_bookkeeping(self):
        rng = np.random.default_rng(7)
        bag = HierarchicalBag("histology", [(f"r{i}", rng.normal(size=(5, 768))) for i in range(3)])
        enc = HistologyEncoder(768, 512, rng=rng)
        out = enc(bag)
        assert [t.shape for _, t in out] == [(5, 512)] * 3

    def test_hand_projection(self):
        enc = HistologyEncoder(2, 2, rng=np.random.default_rng(8))
        enc.proj.weight.data[:] = np.array([[1.0, 0.0], [0.0, 2.0]])
        enc.proj.bias.data[:] = 0.0
        bag = HierarchicalBag("histology", [("r0", np.array([[1.0, 2.0]]))])
        assert np.array_equal(enc(bag)[0][1].data, [[1.0, 4.0]])


class TestHimFine:
    def test_zero_out_projection_is_identity(self):
        blk = _block(seed=9)
        rng = np.random.default_rng(10)
        groups = [("a", Tensor(rng.normal(size=(4, 3)))), ("b", Tensor(rng.normal(size=(2, 3))))]
        refined = him_fine(groups, blk)
        for (gid, orig), (gid2, ref) in zip(groups, refined):
            assert gid == gid2
            assert np.array_equal(ref.data, orig.data)

    def test_group_reorder_equivariance(self):
        blk = _block(seed=11, noise=12)
        rng = np.random.default_rng(13)
        groups = [(f"g{i}", Tensor(rng.normal(size=(int(k), 3)))) for i, k in enumerate([3, 5, 3, 2])]
        fwd = him_fine(groups, blk)
        perm = [2, 0, 3, 1]
        refined_perm = him_fine([groups[i] for i in perm], blk)
        for j, i in enumerate(perm):
            assert refined_perm[j][0] == groups[i][0]
            assert np.max(np.abs(refined_perm[j][1].data - fwd[i][1].data)) < 1e-12

    def test_within_group_permutation_changes_output(self):
        # the scan is order-sensitive by design
        blk = _block(seed=14, noise=15)
        rng = np.random.default_rng(16)
        toks = rng.normal(size=(5, 3))
        out1 = him_fine([("g", Tensor(toks))], blk)[0][1].data
        out2 = him_fine([("g", Tensor(toks[::-1].copy()))], blk)[0][1].data
        assert np.max(np.abs(out1 - out2[::-1])) > 1e-6

    def test_matches_direct_block_call(self):
        blk = _block(seed=17, noise=18)
        toks = np.ones((4, 3))
        refined = him_fine([("g", Tensor(toks))], blk)[0][1].data
        direct = blk(Tensor(toks[None]))[0].data
        assert np.array_equal(refined, direct)

    def test_batched_lengths_match_unbatched(self):
        # equal-length groups run as one batch; must equal one-by-one calls
        blk = _block(seed=19, noise=20)
        rng = np.random.default_rng(21)
        groups = [(f"g{i}", Tensor(rng.normal(size=(4, 3)))) for i in range(3)]
        batched = him_fine(groups, blk)
        for gid, toks in groups:
            single = blk(Tensor(toks.data[None]))[0].data
            got = dict((g, t.data) for g, t in batched)[gid]
            assert np.max(np.abs(got - single)) < 1e-12


class TestHimCoarse:
    def test_singleton_groups_zero_block(self):
        blk = _block(seed=22)
        rng = np.random.default_rng(23)
        toks = [rng.normal(size=(1, 3)) for _ in range(4)]
        refined = [(f"g{i}", Tensor(t)) for i, t in enumerate(toks)]
        out = him_coarse(refined, blk)
        assert np.array_equal(out.data, np.concatenate(toks, axis=0))

    def test_mean_pooling_values(self):
        blk = _block(seed=24)
        refined = [("g", Tensor(np.array([[1.0, 3.0], [3.0, 1.0]])))]
        blk2 = _block(seed=25, d=2, e=4)
        out = him_coarse(refined, blk2)
        assert np.array_equal(out.data, [[2.0, 2.0]])  # zero block -> pooled token

    def test_group_count_preserved(self):
        blk = _block(seed=26, noise=27)
        rng = np.random.default_rng(28)
        for g in (1, 2, 5):
            refined = [(f"g{i}", Tensor(rng.normal(size=(3, 3)))) for i in range(g)]
            assert him_coarse(refined, blk).shape == (g, 3)

    def test_not_equivariant_to_group_order(self):
        blk = _block(seed=29, noise=30)
        rng = np.random.default_rng(31)
        refined = [(f"g{i}", Tensor(rng.normal(size=(3, 3)))) for i in range(4)]
        out = him_coarse(refined, blk).data
        out_rev = him_coarse(refined[::-1], blk).data
        assert np.max(np.abs(out - out_rev[::-1])) > 1e-6

    def test_constant_group_pools_exactly(self):
        vec = np.array([1.5, -2.0, 0.25])
        toks = np.tile(vec, (7, 1))
        blk = _block(seed=32)
        out = him_coarse([("g", Tensor(toks))], blk)
        assert np.array_equal(out.data, vec[None])


class TestHimGradient:
    def test_two_group_toy_gradient(self):
        from survmamba.gradsuite import check_him

        [(name, err, bound)] = check_him()
        assert err <= bound
