"""Two-level bags and the dual-level aggregation pipeline.

Each modality arrives as a hierarchical bag: ordered groups (tissue
regions / biological processes), each holding an ordered run of
fine-grained token rows (patch embeddings / function tokens). Group and
token order are part of the data contract because the scan is
order-sensitive: raster order for regions and patches, catalog order for
processes and functions.

Past the encoders a modality is one (L, D) token tensor, its groups laid
end to end in order, plus the `numerics.Runs` of those groups, built
once: at construction for the fixed genomics catalog, on the first use
of a bag's group sizes for histology (`Runs.cached`). The dual-level
pipeline refines the tokens inside each group with one shared
bidirectional block (`him_fine`), mean-pools every group to a single
token, and runs a second bidirectional block over the group sequence,
one run of G tokens (`him_coarse`). Either level is one block call per
block of the stack, whatever the group sizes. Several patients' tokens
and runs can be joined end to end into one call at either level: the
runs stay independent, and `him_coarse` takes the runs of the pooled
rows, one sequence per patient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import BiMambaBlock
from .errors import DataError
from .numerics import (LinearLayer, Module, Namespace, Runs, Tensor, concat, reshape, segment_mean,
                       silu, stacked_linear, uniform_init)

# full-scale catalog defaults (the synthetic generator uses smaller ones)
DEFAULT_N_PROCESSES = 42
DEFAULT_N_FUNCTIONS = 352


@dataclass
class HierarchicalBag:
    """One modality's two-level bag: ordered (group_id, tokens) pairs.

    tokens are (K_g, D_raw) float64 arrays; every group is non-empty and
    all groups share D_raw.
    """

    modality: str
    groups: list

    def __post_init__(self):
        if not self.groups:
            raise DataError(f"{self.modality} bag has no groups")
        dims = set()
        for gid, toks in self.groups:
            toks = np.asarray(toks, dtype=np.float64)
            if toks.ndim != 2 or toks.shape[0] < 1:
                raise DataError(f"{self.modality} group {gid!r} is empty or not a token matrix")
            dims.add(toks.shape[1])
        if len(dims) != 1:
            raise DataError(f"{self.modality} bag mixes token dims {sorted(dims)}")

    @property
    def token_dim(self) -> int:
        return int(np.asarray(self.groups[0][1]).shape[1])

    @property
    def n_groups(self) -> int:
        return len(self.groups)


@dataclass
class GroupingConfig:
    """Process -> function -> gene-index catalog, in fixed order.

    processes: ordered (process_id, [function_id, ...]); functions:
    ordered (function_id, [gene index, ...]). A gene may belong to
    several functions; every function lists at least one gene index, a
    non-negative integer, and every process at least one function.
    """

    processes: list
    functions: list
    _fn_index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._fn_index = {fid: genes for fid, genes in self.functions}
        if len(self._fn_index) != len(self.functions):
            raise DataError("grouping: duplicate function ids")
        for fid, genes in self.functions:
            if not genes:
                raise DataError(f"genes {genes!r} is not a non-empty list (function {fid!r})")
            if not all((type(g) is int or isinstance(g, np.integer)) and g >= 0 for g in genes):  # bools are not
                raise DataError(f"genes {genes!r} are not non-negative integers (function {fid!r})")
        for pid, fids in self.processes:
            if not fids:
                raise DataError(f"grouping: process {pid!r} lists no functions")
            for fid in fids:
                if fid not in self._fn_index:
                    raise DataError(f"grouping: process {pid!r} references unknown function {fid!r}")

    def genes_of(self, fid: str) -> list:
        return self._fn_index[fid]

    @property
    def n_genes(self) -> int:
        return 1 + max(g for _, genes in self.functions for g in genes)

    def to_dict(self) -> dict:
        return {
            "processes": [{"id": pid, "functions": list(fids)} for pid, fids in self.processes],
            "functions": [{"id": fid, "genes": list(genes)} for fid, genes in self.functions],
        }


def _catalog(functions_per_process: list, genes_per_function: int) -> GroupingConfig:
    """Consecutive gene blocks, consecutive function blocks; process p
    gets functions_per_process[p] functions."""
    functions = []
    processes = []
    f = 0
    for p, count in enumerate(functions_per_process):
        fids = []
        for _ in range(count):
            fid = f"F{f:04d}"
            functions.append((fid, list(range(f * genes_per_function, (f + 1) * genes_per_function))))
            fids.append(fid)
            f += 1
        processes.append((f"P{p:03d}", fids))
    return GroupingConfig(processes=processes, functions=functions)


def make_grouping(n_processes: int, functions_per_process: int, genes_per_function: int) -> GroupingConfig:
    """Uniform catalog: every process holds functions_per_process functions."""
    return _catalog([functions_per_process] * n_processes, genes_per_function)


def default_catalog(genes_per_function: int = 8) -> GroupingConfig:
    """Full-scale catalog shape: 42 processes over 352 functions, ragged."""
    base, extra = divmod(DEFAULT_N_FUNCTIONS, DEFAULT_N_PROCESSES)
    counts = [base + (1 if p < extra else 0) for p in range(DEFAULT_N_PROCESSES)]
    return _catalog(counts, genes_per_function)


class _MlpBank(Module):
    """Stacked two-layer MLPs for all functions sharing one input width.

    Weight tensors carry a leading function axis, so the whole bank runs
    as two batched matmuls; row f is function f's own MLP.
    """

    def __init__(self, n_fns: int, n_in: int, hidden: int, d_out: int, rng):
        super().__init__()
        self.w1 = Tensor(uniform_init(rng, (n_fns, n_in, hidden), n_in), requires_grad=True)
        self.b1 = Tensor(np.zeros((n_fns, hidden)), requires_grad=True)
        self.w2 = Tensor(uniform_init(rng, (n_fns, hidden, d_out), hidden), requires_grad=True)
        self.b2 = Tensor(np.zeros((n_fns, d_out)), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return stacked_linear(silu(stacked_linear(x, self.w1, self.b1)), self.w2, self.b2)


class GenomicsEncoder(Module):
    """Per-function two-layer MLPs producing D-dim tokens, grouped by
    process in catalog order. Functions with equal gene counts share one
    stacked bank (same math, one batched call); one gather, built at
    construction, puts the banks' rows in process order. `runs` holds
    each process's function count, one run per process."""

    def __init__(self, grouping: GroupingConfig, d_model: int, hidden: int, rng):
        super().__init__()
        self.grouping = grouping
        by_width: dict = {}
        for fid, genes in grouping.functions:
            by_width.setdefault(len(genes), []).append((fid, genes))
        self._banks = []  # (bank, gene index matrix), in width order
        self._slot = {}  # function id -> (bank, row), in concatenated bank output order
        banks = Namespace()
        for w in sorted(by_width):
            members = by_width[w]
            bank = _MlpBank(len(members), w, hidden, d_model, rng)
            setattr(banks, f"genes{w}", bank)
            self._banks.append((bank, np.asarray([genes for _, genes in members], dtype=np.int64)))
            for row, (fid, _) in enumerate(members):
                self._slot[fid] = (bank, row)
        self.banks = banks
        rank = {fid: r for r, fid in enumerate(self._slot)}
        order = [rank[fid] for _, fids in grouping.processes for fid in fids]
        self._order = None if order == list(range(len(rank))) else np.asarray(order, dtype=np.int64)
        self.runs = Runs([len(fids) for _, fids in grouping.processes])
        self.n_genes = grouping.n_genes  # the expression length read

    def __call__(self, expr: list) -> tuple:
        """expr: a list of P patients' 1-d gene expression vectors ->
        ((P * n_functions, D) tokens, each patient's in process order and
        the patients end to end, and each patient's runs). The banks run
        once on the vectors' stack."""
        vectors = [np.asarray(e, dtype=np.float64) for e in expr]
        for v in vectors:
            if self.n_genes > v.shape[0]:
                fid, top = next((f, max(g)) for f, g in self.grouping.functions if max(g) >= v.shape[0])
                raise DataError(f"genomics: function {fid!r} needs gene index {top} "
                                f"but expression vector has {v.shape[0]} genes; the catalog needs {self.n_genes}")
        x = np.stack([v[: self.n_genes] for v in vectors])
        tokens = [bank(Tensor(x[..., gene_idx])) for bank, gene_idx in self._banks]
        tokens = tokens[0] if len(tokens) == 1 else concat(tokens, axis=-2)
        p, f, d = tokens.shape
        tokens = reshape(tokens, (p * f, d))
        if self._order is not None:
            tokens = tokens[(f * np.arange(p)[:, None] + self._order).ravel()]
        return tokens, self.runs


class HistologyEncoder(Module):
    """Shared linear projection of raw patch embeddings to the token dim."""

    def __init__(self, d_raw: int, d_model: int, rng):
        super().__init__()
        self.proj = LinearLayer(d_raw, d_model, rng)

    def __call__(self, bag: HierarchicalBag) -> tuple:
        """bag -> ((n_patches, D) tokens in region order, runs)."""
        flat = np.concatenate([np.asarray(t, dtype=np.float64) for _, t in bag.groups], axis=0)
        return self.proj(Tensor(flat)), Runs.cached(tuple(len(t) for _, t in bag.groups))


def him_fine(tokens: Tensor, block: BiMambaBlock, runs: Runs) -> Tensor:
    """Refine each group's token run with the same shared block, in one
    block call.

    tokens is (L, D) with the groups of runs laid end to end; the result
    has the same layout. The block treats every group as its own sequence,
    with no padding: its scan packs the groups time-major, longest first,
    and steps only the groups still running. Groups are independent, so
    the result is equivariant to group reordering.
    """
    runs.check("him_fine", tokens.shape[0])
    return block(tokens, runs)


def him_coarse(tokens: Tensor, block: BiMambaBlock, runs: Runs, pooled: Runs | None = None) -> Tensor:
    """Mean-pool each group of the (L, D) tokens and mix the group sequence.

    Returns one row per group, in group order. pooled holds the runs of
    those rows: one sequence per patient when runs joins several
    patients' groups; by default all the groups form one sequence. The
    coarse block sees group order, so this stage is order-sensitive.
    """
    runs.check("him_coarse", tokens.shape[0])
    return block(segment_mean(tokens, runs), Runs.cached((len(runs),)) if pooled is None else pooled)
