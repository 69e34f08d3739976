"""Bags, encoders, and the dual-level aggregation pipeline."""

import numpy as np
import pytest

import survmamba.ssm as ssm
from survmamba.blocks import BiMambaBlock
from survmamba.errors import DataError, ShapeError
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
from survmamba.numerics import Runs, Tensor, concat, linear, segment_mean, silu, tsum

import _oracles as oracle


def _block(seed, noise=None, d=3, e=4, n=2, w=2, disc_mode="euler"):
    blk = BiMambaBlock(d, e, n, w, rng=np.random.default_rng(seed), disc_mode=disc_mode)
    if noise is not None:
        prng = np.random.default_rng(noise)
        for _, p in blk.named_parameters():
            p.data += prng.normal(scale=0.4, size=p.shape)
    return blk


class TestBags:
    def test_empty_group_rejected(self):
        with pytest.raises(DataError):
            HierarchicalBag("histology", [("r0", np.zeros((0, 4)))])

    def test_groups_are_kept_as_float64_arrays(self):
        """The bag converts each group once, when it is built; a float64
        array is kept as it is."""
        toks = np.ones((2, 3))
        bag = HierarchicalBag("histology", [("r0", toks), ("r1", [[1, 2, 3]])])
        assert bag.groups[0][1] is toks
        assert bag.groups[1][1].dtype == np.float64 and bag.groups[1][1].shape == (1, 3)
        assert bag.token_dim == 3

    def test_mixed_dims_rejected(self):
        with pytest.raises(DataError, match="dims"):
            HierarchicalBag("histology", [("r0", np.zeros((2, 4))), ("r1", np.zeros((2, 5)))])

    def test_grouping_validation(self):
        with pytest.raises(DataError, match="unknown function"):
            GroupingConfig(processes=[("p0", ["f9"])], functions=[("f0", [0, 1])])
        with pytest.raises(DataError, match="no functions"):
            GroupingConfig(processes=[("p0", [])], functions=[("f0", [0])])

    @pytest.mark.parametrize("genes, message", [
        ([], r"genes \[\] is not a non-empty list"),
        ([-1, 2], r"genes \[-1, 2\] are not non-negative integers"),
        ([0.5, 1], r"genes \[0\.5, 1\] are not non-negative integers"),
        ([True, 1], r"genes \[True, 1\] are not non-negative integers"),
        ([np.float64(1.0)], r"genes \[.*\] are not non-negative integers"),
    ])
    def test_in_memory_genes_are_checked_as_files_are(self, genes, message):
        """A function's genes must be a non-empty list of non-negative
        integers, in memory as in a grouping file, and the DataError names
        the function."""
        with pytest.raises(DataError, match=rf"^{message} \(function 'F0001'\)$"):
            GroupingConfig(processes=[("P000", ["F0000", "F0001"])], functions=[("F0000", [0]), ("F0001", genes)])

    def test_a_catalog_of_no_genes_is_refused(self):
        with pytest.raises(DataError, match=r"^genes \[\] is not a non-empty list \(function 'F0000'\)$"):
            make_grouping(2, 2, 0)

    def test_numpy_integer_genes_pass(self):
        cfg = GroupingConfig(processes=[("p0", ["f0"])], functions=[("f0", list(np.arange(2, 5)))])
        assert cfg.n_genes == 5
        assert GenomicsEncoder(cfg, d_model=2, hidden=2, rng=np.random.default_rng(0)).n_genes == 5

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


def _set_function_mlp(enc, fid, w1, b1, w2, b2):
    """Overwrite one function's MLP weights in its bank's row."""
    bank, row = enc._slot[fid]
    bank.w1.data[row] = w1
    bank.b1.data[row] = b1
    bank.w2.data[row] = w2
    bank.b2.data[row] = b2


class TestGenomicsEncoder:
    def test_zero_network_gives_bias(self):
        cfg = GroupingConfig(processes=[("p0", ["f0"])], functions=[("f0", [0, 1])])
        enc = GenomicsEncoder(cfg, d_model=3, hidden=2, rng=np.random.default_rng(0))
        _set_function_mlp(enc, "f0", np.zeros((2, 2)), np.zeros(2), np.zeros((2, 3)), np.full(3, 1.5))
        tokens, runs = enc([np.array([4.0, 5.0])])
        assert runs.sizes.tolist() == [1]
        assert np.array_equal(tokens.data, [[1.5, 1.5, 1.5]])

    def test_shapes_follow_catalog(self):
        cfg = make_grouping(n_processes=2, functions_per_process=3, genes_per_function=2)
        cfg2 = GroupingConfig(
            processes=[(cfg.processes[0][0], cfg.processes[0][1]),
                       (cfg.processes[1][0], cfg.processes[1][1][:2])],
            functions=cfg.functions,
        )
        enc = GenomicsEncoder(cfg2, d_model=4, hidden=3, rng=np.random.default_rng(1))
        tokens, runs = enc([np.random.default_rng(2).normal(size=12)])
        assert tokens.shape == (5, 4) and runs.sizes.tolist() == [3, 2]

    def test_hand_traced_mlp(self):
        # one function over genes [0, 2], one hidden unit, hand-set weights
        cfg = GroupingConfig(processes=[("p0", ["f0"])], functions=[("f0", [0, 2])])
        enc = GenomicsEncoder(cfg, d_model=2, hidden=1, rng=np.random.default_rng(3))
        w1 = np.array([[2.0], [1.0]])
        b1 = np.array([0.5])
        w2 = np.array([[1.0, -1.0]])
        b2 = np.array([0.25, 0.25])
        _set_function_mlp(enc, "f0", w1, b1, w2, b2)
        expr = np.array([1.0, 0.0, 2.0])
        pre = 2.0 * 1.0 + 1.0 * 2.0 + 0.5  # 4.5
        hid = oracle.silu(np.array([pre]))
        expect = np.array([hid[0] + 0.25, -hid[0] + 0.25])
        out = enc([expr])[0].data
        assert np.max(np.abs(out[0] - expect)) < 1e-12

    def test_gene_out_of_range_names_function(self):
        cfg = GroupingConfig(processes=[("p0", ["f7"])], functions=[("f7", [0, 5])])
        enc = GenomicsEncoder(cfg, d_model=2, hidden=2, rng=np.random.default_rng(4))
        with pytest.raises(DataError, match="f7"):
            enc([np.zeros(3)])
        with pytest.raises(DataError, match="f7.* has 3 genes"):
            enc([np.zeros(6), np.zeros(3)])  # one short vector in a stack

    @pytest.mark.parametrize("expr, shape", [
        (np.zeros(3), r"\(\)"),  # a bare vector, whose entries are 0-d
        ([np.zeros(3), np.zeros((1, 3))], r"\(1, 3\)"),
    ])
    def test_an_entry_that_is_not_a_vector_is_a_data_error(self, expr, shape):
        """Each entry must be a 1-d expression vector; a bare vector used to
        end in a raw IndexError."""
        enc = GenomicsEncoder(make_grouping(1, 1, 2), d_model=2, hidden=2, rng=np.random.default_rng(4))
        with pytest.raises(DataError, match=rf"^genomics: expected a list of 1-d expression vectors, "
                                            rf"got an entry of shape {shape}$"):
            enc(expr)

    def test_ragged_widths_batch_correctly(self):
        cfg = GroupingConfig(
            processes=[("p0", ["f0", "f1", "f2"])],
            functions=[("f0", [0]), ("f1", [1, 2]), ("f2", [3])],
        )
        enc = GenomicsEncoder(cfg, d_model=2, hidden=2, rng=np.random.default_rng(5))
        tokens, runs = enc([np.array([1.0, 2.0, 3.0, 4.0])])
        assert tokens.shape == (3, 2) and runs.sizes.tolist() == [3]


def _per_function_reference(enc, grouping, expr):
    """Each function's MLP run on its own, rows taken from the banks'
    parameters, joined in catalog order."""
    widths = {}
    for fid, genes in grouping.functions:
        widths.setdefault(len(genes), []).append(fid)
    rows = []
    for _, fids in grouping.processes:
        for fid in fids:
            genes = grouping.genes_of(fid)
            bank = getattr(enc.banks, f"genes{len(genes)}")
            r = widths[len(genes)].index(fid)
            hid = silu(linear(Tensor(expr[genes][None]), bank.w1[r], bank.b1[r]))
            rows.append(linear(hid, bank.w2[r], bank.b2[r]))
    return concat(rows, axis=0)


class TestGenomicsEncoderGather:
    RAGGED = GroupingConfig(
        processes=[("p0", ["f3", "f0"]), ("p1", ["f2"]), ("p2", ["f1", "f4", "f3"])],
        functions=[("f0", [0, 1]), ("f1", [2]), ("f2", [3, 4, 5]), ("f3", [1, 6]), ("f4", [7])],
    )

    @staticmethod
    def _outputs_and_grads(enc, tokens, weight_seed=2):
        w = np.random.default_rng(weight_seed).normal(size=tokens.shape)
        enc.zero_grad()
        tsum(tokens * Tensor(w)).backward()
        return tokens.data, {n: p.grad.copy() for n, p in enc.named_parameters()}

    def test_ragged_non_contiguous_matches_reference(self):
        """Widths 1, 2 and 3 in three banks, processes that interleave them
        and one function listed by two processes: outputs and gradients
        match running every function on its own."""
        g = self.RAGGED
        enc = GenomicsEncoder(g, d_model=4, hidden=3, rng=np.random.default_rng(0))
        expr = np.random.default_rng(1).normal(size=8)
        tokens, runs = enc([expr])
        assert runs.sizes.tolist() == [2, 1, 3]
        out, grads = self._outputs_and_grads(enc, tokens)
        ref_out, ref_grads = self._outputs_and_grads(enc, _per_function_reference(enc, g, expr))
        assert np.max(np.abs(out - ref_out)) <= 1e-12 * np.max(np.abs(ref_out))
        for name, r in ref_grads.items():
            assert np.max(np.abs(grads[name] - r)) <= 1e-12 * np.max(np.abs(r)), name

    def test_stack_matches_each_patient(self):
        """A list of expression vectors, of different lengths, runs the
        banks once on their stack: the patients' rows end to end, and the
        gradients, match encoding the patients one at a time."""
        enc = GenomicsEncoder(self.RAGGED, d_model=4, hidden=3, rng=np.random.default_rng(0))
        rng = np.random.default_rng(3)
        exprs = [rng.normal(size=n) for n in (8, 10, 8)]
        tokens, runs = enc(exprs)
        assert tokens.shape == (3 * runs.rows, 4)
        out, grads = self._outputs_and_grads(enc, tokens)
        ref_out, ref_grads = self._outputs_and_grads(enc, concat([enc([e])[0] for e in exprs], axis=0))
        assert np.max(np.abs(out - ref_out)) <= 1e-12 * np.max(np.abs(ref_out))
        for name, r in ref_grads.items():
            assert np.max(np.abs(grads[name] - r)) <= 1e-12 * np.max(np.abs(r)), name

    @pytest.mark.parametrize("grouping", [make_grouping(3, 4, 2), default_catalog(2)], ids=["uniform", "default"])
    def test_one_width_catalog_is_one_bank_call(self, grouping):
        """With one width in catalog order there is no concatenation and no
        gather: the tokens are the bank's output itself."""
        enc = GenomicsEncoder(grouping, d_model=3, hidden=2, rng=np.random.default_rng(6))
        (bank, gene_idx), = enc._banks
        assert enc._order is None
        expr = np.random.default_rng(7).normal(size=grouping.n_genes)
        tokens, runs = enc([expr])
        assert np.array_equal(tokens.data, bank(Tensor(expr[gene_idx])).data)
        assert runs.sizes.tolist() == [len(fids) for _, fids in grouping.processes]
        assert enc([expr])[1] is runs  # built once, with the encoder


class TestHistologyEncoder:
    def test_identity_projection(self):
        enc = HistologyEncoder(2, 2, rng=np.random.default_rng(6))
        enc.proj.weight.data[:] = np.eye(2)
        enc.proj.bias.data[:] = 0.0
        bag = HierarchicalBag("histology", [("r0", np.array([[1.0, 2.0], [3.0, 4.0]]))])
        tokens, runs = enc(bag)
        assert np.array_equal(tokens.data, bag.groups[0][1]) and runs.sizes.tolist() == [2]

    def test_shape_bookkeeping(self):
        rng = np.random.default_rng(7)
        bag = HierarchicalBag("histology", [(f"r{i}", rng.normal(size=(k, 768))) for i, k in enumerate([5, 2, 5])])
        enc = HistologyEncoder(768, 512, rng=rng)
        tokens, runs = enc(bag)
        assert tokens.shape == (12, 512) and runs.sizes.tolist() == [5, 2, 5]

    def test_hand_projection(self):
        enc = HistologyEncoder(2, 2, rng=np.random.default_rng(8))
        enc.proj.weight.data[:] = np.array([[1.0, 0.0], [0.0, 2.0]])
        enc.proj.bias.data[:] = 0.0
        bag = HierarchicalBag("histology", [("r0", np.array([[1.0, 2.0]]))])
        assert np.array_equal(enc(bag)[0].data, [[1.0, 4.0]])


def _groups(rng, sizes, d=3):
    """Per-group token arrays and the same groups laid end to end."""
    parts = [rng.normal(size=(k, d)) for k in sizes]
    return parts, Tensor(np.concatenate(parts, axis=0))


def _split(tokens, sizes):
    return np.split(tokens.data, np.cumsum(sizes)[:-1], axis=0)


class TestHimFine:
    def test_zero_out_projection_is_identity(self):
        blk = _block(seed=9)
        _, tokens = _groups(np.random.default_rng(10), [4, 2])
        refined = him_fine(tokens, blk, Runs([4, 2]))
        assert np.array_equal(refined.data, tokens.data)

    def test_group_reorder_equivariance(self):
        blk = _block(seed=11, noise=12)
        sizes = [3, 5, 3, 2]
        parts, tokens = _groups(np.random.default_rng(13), sizes)
        fwd = _split(him_fine(tokens, blk, Runs(sizes)), sizes)
        perm = [2, 0, 3, 1]
        sizes_perm = [sizes[i] for i in perm]
        tokens_perm = Tensor(np.concatenate([parts[i] for i in perm], axis=0))
        refined_perm = _split(him_fine(tokens_perm, blk, Runs(sizes_perm)), sizes_perm)
        for j, i in enumerate(perm):
            assert np.max(np.abs(refined_perm[j] - fwd[i])) < 1e-12

    def test_within_group_permutation_changes_output(self):
        # the scan is order-sensitive by design
        blk = _block(seed=14, noise=15)
        rng = np.random.default_rng(16)
        toks = rng.normal(size=(5, 3))
        out1 = him_fine(Tensor(toks), blk, Runs([5])).data
        out2 = him_fine(Tensor(toks[::-1].copy()), blk, Runs([5])).data
        assert np.max(np.abs(out1 - out2[::-1])) > 1e-6

    def test_matches_direct_block_call(self):
        blk = _block(seed=17, noise=18)
        toks = np.ones((4, 3))
        refined = him_fine(Tensor(toks), blk, Runs([4])).data
        direct = blk(Tensor(toks), Runs([4])).data
        assert np.array_equal(refined, direct)

    def test_batched_lengths_match_unbatched(self):
        # equal-length groups run as equal runs; must equal one-by-one calls
        blk = _block(seed=19, noise=20)
        parts, tokens = _groups(np.random.default_rng(21), [4, 4, 4])
        batched = _split(him_fine(tokens, blk, Runs([4, 4, 4])), [4, 4, 4])
        for got, toks in zip(batched, parts):
            single = blk(Tensor(toks), Runs([4])).data
            assert np.max(np.abs(got - single)) < 1e-12

    def test_interleaved_ragged_matches_direct_calls(self):
        """Lengths 3 and 5 interleaved with a singleton: outputs and every
        parameter and input gradient equal one direct block call per
        group."""
        blk = _block(seed=40, noise=41)
        sizes = [3, 5, 3, 1, 5]
        parts, tokens = _groups(np.random.default_rng(42), sizes)
        tokens.requires_grad = True
        w = np.random.default_rng(43).normal(size=tokens.shape)

        blk.zero_grad()
        out = him_fine(tokens, blk, Runs(sizes))
        tsum(out * Tensor(w)).backward()
        got = (out.data, tokens.grad.copy(), {n: p.grad.copy() for n, p in blk.named_parameters()})

        blk.zero_grad()
        inputs = [Tensor(p, requires_grad=True) for p in parts]
        outs = [blk(x, Runs([len(p)])) for x, p in zip(inputs, parts)]
        tsum(concat(outs, axis=0) * Tensor(w)).backward()
        want = (np.concatenate([o.data for o in outs], axis=0),
                np.concatenate([x.grad for x in inputs], axis=0),
                {n: p.grad.copy() for n, p in blk.named_parameters()})

        def close(a, b):
            return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

        assert close(got[0], want[0]) and close(got[1], want[1])
        for name, g in want[2].items():
            assert close(got[2][name], g), name

    def test_runs_must_cover_tokens(self):
        with pytest.raises(ShapeError, match="him_fine: runs cover 4 rows, input has 5"):
            him_fine(Tensor(np.ones((5, 3))), _block(seed=44), Runs([2, 2]))


class TestHimFineOneCall:
    """One block call over the flat layout against the per-distinct-length
    batching it replaced (tests/_oracles.py): output, input gradient and
    every block parameter gradient to 1e-12 relative to max-abs."""

    E, N = 4, 2

    @staticmethod
    def _run(fn, blk, sizes, seed):
        rng = np.random.default_rng(seed)
        _, tokens = _groups(rng, sizes)
        tokens.requires_grad = True
        weight = Tensor(rng.normal(size=tokens.shape))
        blk.zero_grad()
        out = fn(tokens, blk, Runs(sizes))
        tsum(silu(out) * weight).backward()
        return [("out", out.data), ("tokens", tokens.grad)] + [(n, p.grad) for n, p in blk.named_parameters()]

    @pytest.mark.parametrize("mode", ["euler", "zoh"])
    @pytest.mark.parametrize("sizes, slab, chunk", [
        ([1, 1, 1], None, None),  # singletons
        ([6], None, None),  # one group
        ([4, 4, 4], None, None),  # all equal
        ([3, 1, 5, 1, 2, 5], None, None),
        # rows of 13 span five 3-step slabs and seven 2-step chunks; rows end
        # inside chunks (1, 4, 7, 10) and on chunk edges (2)
        ([2, 13, 1, 7, 13, 4, 10], 3, 2),
    ], ids=["singletons", "one-group", "equal", "ragged", "slabs-and-chunks"])
    def test_matches_per_length_oracle(self, monkeypatch, mode, sizes, slab, chunk):
        step_bytes = 8 * len(sizes) * self.E * self.N  # one step with every group running
        if slab is not None:
            monkeypatch.setattr(ssm, "SLAB_BYTES", slab * step_bytes)
            monkeypatch.setattr(ssm, "CHUNK_BYTES", chunk * step_bytes)
        blk = _block(seed=50, noise=51, e=self.E, n=self.N, disc_mode=mode)
        got = self._run(him_fine, blk, sizes, seed=52)
        want = self._run(oracle.him_fine_per_length, blk, sizes, seed=52)
        for (name, g), (_, w) in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), name

    @pytest.mark.parametrize("sizes", [[4, 4, 4], [3, 1, 5, 1, 2, 5]], ids=["equal", "ragged"])
    def test_one_block_call(self, monkeypatch, sizes):
        """Any grouping is one block call on the flat tokens with the
        modality's runs."""
        blk = _block(seed=53, noise=54)
        calls = []

        def spy(self, tokens, runs):
            calls.append((tokens.shape, runs))
            return orig(self, tokens, runs)

        orig = BiMambaBlock.__call__
        monkeypatch.setattr(BiMambaBlock, "__call__", spy)
        _, tokens = _groups(np.random.default_rng(55), sizes)
        runs = Runs(sizes)
        him_fine(tokens, blk, runs)
        assert calls == [((sum(sizes), 3), runs)]


@pytest.mark.parametrize("sizes, bad", [([0, 5], 0), ([2, 0, 3], 1), ([6, -1], 1)])
def test_non_positive_group_size_named(sizes, bad):
    """Sizes that still sum to 5 rows: building their runs names the
    group instead of returning nan/inf or failing inside numpy."""
    with pytest.raises(ShapeError, match=f"runs: group {bad} has size {sizes[bad]}"):
        Runs(sizes)


@pytest.mark.parametrize("where", ["segment_mean", "him_fine", "him_coarse"])
def test_runs_not_covering_tokens_named(where):
    """Runs of 4 rows against 5 tokens: each stage names itself."""
    tokens, runs = Tensor(np.ones((5, 3))), Runs([3, 1])
    call = {"segment_mean": lambda: segment_mean(tokens, runs),
            "him_fine": lambda: him_fine(tokens, _block(seed=56), runs),
            "him_coarse": lambda: him_coarse(tokens, _block(seed=56), runs)}[where]
    with pytest.raises(ShapeError, match=f"{where}: runs cover 4 rows, input has 5"):
        call()


class TestHimCoarse:
    def test_singleton_groups_zero_block(self):
        blk = _block(seed=22)
        tokens = Tensor(np.random.default_rng(23).normal(size=(4, 3)))
        out = him_coarse(tokens, blk, Runs([1, 1, 1, 1]))
        assert np.array_equal(out.data, tokens.data)

    def test_mean_pooling_values(self):
        tokens = Tensor(np.array([[1.0, 3.0], [3.0, 1.0], [5.0, -1.0]]))
        blk2 = _block(seed=25, d=2, e=4)
        out = him_coarse(tokens, blk2, Runs([2, 1]))
        assert np.array_equal(out.data, [[2.0, 2.0], [5.0, -1.0]])  # zero block -> pooled tokens

    def test_group_count_preserved(self):
        blk = _block(seed=26, noise=27)
        rng = np.random.default_rng(28)
        for g in (1, 2, 5):
            assert him_coarse(Tensor(rng.normal(size=(3 * g, 3))), blk, Runs([3] * g)).shape == (g, 3)

    def test_not_equivariant_to_group_order(self):
        blk = _block(seed=29, noise=30)
        parts, tokens = _groups(np.random.default_rng(31), [3] * 4)
        out = him_coarse(tokens, blk, Runs([3] * 4)).data
        out_rev = him_coarse(Tensor(np.concatenate(parts[::-1], axis=0)), blk, Runs([3] * 4)).data
        assert np.max(np.abs(out - out_rev[::-1])) > 1e-6

    def test_constant_group_pools_exactly(self):
        vec = np.array([1.5, -2.0, 0.25])
        toks = np.tile(vec, (7, 1))
        blk = _block(seed=32)
        out = him_coarse(Tensor(toks), blk, Runs([7]))
        assert np.array_equal(out.data, vec[None])


def _interior(root) -> list:
    """Tape nodes with a backward closure, walked from a loss."""
    seen, todo, interior = {id(root)}, [root], []
    while todo:
        node = todo.pop()
        if node._backward is not None:
            interior.append(node)
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return interior


def _interior_nodes(root) -> int:
    return len(_interior(root))


def _node_kinds(root) -> set:
    """The kinds of interior node on a graph: the op or block whose closure
    each one runs, such as 'linear' or 'BiMambaBlock.__call__'."""
    return {node._backward.__qualname__.split(".<locals>")[0] for node in _interior(root)}


def test_every_node_kind_on_a_desk_loss_has_a_gradient_suite_entry(monkeypatch):
    """Each kind of node a desk training loss records is on the graph of a
    gradient-suite check of its own: the suites are run with grad_check
    spied on, leaving out the end-to-end pipeline check, whose graph holds
    every kind by construction."""
    import survmamba.gradsuite as gradsuite
    from survmamba.synth import SynthSpec, synth_generate
    from survmamba.training import TrainConfig, build_model

    checked = set()
    grad_check = gradsuite.grad_check

    def spy(f, params, h=1e-5):
        checked.update(_node_kinds(f()))
        return grad_check(f, params, h)

    monkeypatch.setattr(gradsuite, "grad_check", spy)
    for suite in ("numerics", "ssm", "blocks", "hierarchy"):
        gradsuite.run_grad_checks(suite)
    ds = synth_generate(SynthSpec(n_patients=12), seed=0)
    model = build_model(ds, TrainConfig(d_model=32, e_expand=64, n_state=8))
    desk = set()
    for rec in ds.records:  # censored and not, events in the first and later bins
        desk |= _node_kinds(model.loss(rec))
    assert {"BiMambaBlock.__call__", "IFMBlock.__call__", "stacked_linear", "cumprod"} <= desk
    assert desk <= checked, sorted(desk - checked)


class TestTapeSize:
    @pytest.mark.parametrize("t_bin, censored", [(0, 0), (1, 1), (3, 0)],
                             ids=["event_first_bin", "censored", "event_last_bin"])
    def test_desk_patient_step_interior_nodes(self, t_bin, censored):
        """One loss at the desk config (d=32, E=64, N=8) on 4x16 bags and
        an 8x4 catalog, for an event in the first or the last of 4 bins
        or a censored patient: the flat token layout keeps the tape at its
        block and fusion nodes, with no per-group slicing, pooling or
        stacking, the head's survival products are one node and each block
        is one node. Measured: 28, 31 and 34 nodes (102, 105 and 108 with a
        node per scan branch, 198, 201 and 204 with a node per branch op)."""
        from survmamba.synth import SynthSpec, synth_generate
        from survmamba.training import TrainConfig, build_model

        ds = synth_generate(SynthSpec(n_patients=12), seed=0)
        model = build_model(ds, TrainConfig(d_model=32, e_expand=64, n_state=8))
        rec = next(r for r in ds.records if r.t_bin == t_bin and r.censored == censored)
        assert _interior_nodes(model.loss(rec)) <= 35

    def test_ragged_desk_patient_step_interior_nodes(self):
        """The same bound on ragged bags: one patient at the desk config
        with six regions of 1-12 patches and the ragged default catalog
        (42 processes of 8-9 functions). One block call per modality
        keeps the tape at the size it has on uniform bags. Measured: 28."""
        model, rec = _ragged_desk_patient(depth=1)
        assert _interior_nodes(model.loss(rec)) <= 35


def _ragged_desk_patient(depth):
    """A desk-config model (d=32, E=64, N=8) over the default catalog and
    one patient with ragged regions, an event in the first bin."""
    from survmamba.data import PatientRecord
    from survmamba.model import ModelConfig, SurvMambaModel

    grouping = default_catalog(2)
    rng = np.random.default_rng(60)
    bag = HierarchicalBag("histology", [(f"R{i}", rng.normal(size=(k, 16)))
                                        for i, k in enumerate([5, 12, 3, 9, 1, 7])])
    rec = PatientRecord("P0", bag, rng.normal(size=grouping.n_genes), 3.0, 0, t_bin=0)
    model = SurvMambaModel(ModelConfig(d_model=32, e_expand=64, n_state=8, depth=depth), grouping, d_raw=16)
    return model, rec


@pytest.mark.parametrize("depth", [1, 2])
def test_ragged_patient_forward_block_calls(monkeypatch, depth):
    """A ragged patient's forward is one block call per block of each of
    the four aggregation stacks (image and genomics, fine and coarse),
    whatever its group sizes."""
    model, rec = _ragged_desk_patient(depth)
    calls = []
    orig = BiMambaBlock.__call__

    def spy(self, *args, **kwargs):
        calls.append(self)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(BiMambaBlock, "__call__", spy)
    model.forward(rec)
    assert len(calls) == 4 * depth


class TestHimGradient:
    def test_two_group_toy_gradient(self):
        from survmamba.gradsuite import check_him

        [(name, err, bound)] = check_him()
        assert err <= bound
