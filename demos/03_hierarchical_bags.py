"""From raw two-level bags to refined fine tokens and coarse group tokens.

Histology arrives as regions of patch embeddings, genomics as one
expression vector that a grouping catalog (process -> function -> genes)
turns into function tokens. Each encoder returns one (L, D) token
tensor, its groups laid end to end, and the Runs of those groups. One
shared bidirectional block refines the tokens inside every group in one
call on the flat tokens, each group its own run. Mean-pooling plus a
second block mixes the group sequence, one run of G tokens. The scan is order-sensitive on purpose: shuffling tokens
inside a group changes its refined tokens, while reordering whole groups
only reorders the fine outputs.
"""

import numpy as np

from survmamba import (
    BiMambaBlock,
    GenomicsEncoder,
    HierarchicalBag,
    HistologyEncoder,
    Runs,
    Tensor,
    him_coarse,
    him_fine,
    make_grouping,
)

rng = np.random.default_rng(2)
D = 6

# -- histology: 3 regions with ragged patch counts ---------------------------

bag = HierarchicalBag("histology", [
    ("R000", rng.normal(size=(5, 12))),
    ("R001", rng.normal(size=(3, 12))),
    ("R002", rng.normal(size=(5, 12))),
])
hist_enc = HistologyEncoder(d_raw=12, d_model=D, rng=np.random.default_rng(3))
img_tokens, img_runs = hist_enc(bag)
print("histology tokens:", img_tokens.shape, "in regions of", img_runs.sizes.tolist())

# -- genomics: 2 processes x 3 functions over 18 genes ------------------------

grouping = make_grouping(n_processes=2, functions_per_process=3, genes_per_function=3)
gen_enc = GenomicsEncoder(grouping, d_model=D, hidden=8, rng=np.random.default_rng(4))
gen_tokens, gen_runs = gen_enc([rng.normal(size=18)])
print("genomics tokens: ", gen_tokens.shape, "in processes of", gen_runs.sizes.tolist())

# -- dual-level aggregation ---------------------------------------------------

fine_block = BiMambaBlock(D, 2 * D, 4, 2, rng=np.random.default_rng(5))
coarse_block = BiMambaBlock(D, 2 * D, 4, 2, rng=np.random.default_rng(6))
noise = np.random.default_rng(7)
for b in (fine_block, coarse_block):
    for _, p in b.named_parameters():
        p.data += noise.normal(scale=0.3, size=p.shape)

# count the block calls of each stage: one per level, whatever the sizes
calls = []
plain_call = BiMambaBlock.__call__


def counted_call(block, tokens, runs):
    stage = "fine" if block is fine_block else "coarse"
    calls.append((stage, tokens.shape, runs))
    return plain_call(block, tokens, runs)


BiMambaBlock.__call__ = counted_call
refined = him_fine(img_tokens, fine_block, img_runs)
coarse = him_coarse(refined, coarse_block, img_runs)
him_coarse(him_fine(gen_tokens, fine_block, gen_runs), coarse_block, gen_runs)
BiMambaBlock.__call__ = plain_call
print("refined tokens:", refined.shape, "(same layout as the input)")
print("coarse tokens: ", coarse.shape, "(one row per region)")
print("block calls:", len(calls), "for 2 modalities x 2 levels")
for modality, (stage, shape, runs) in zip(["histology"] * 2 + ["genomics"] * 2, calls):
    print(f"  {modality} {stage}: {shape} tokens in runs of {runs.sizes.tolist()}")

# group order only permutes fine outputs...
img_sizes = img_runs.sizes.tolist()
regions = np.split(img_tokens.data, np.cumsum(img_sizes)[:-1])
rev_runs = Runs(img_sizes[::-1])
refined_rev = him_fine(Tensor(np.concatenate(regions[::-1])), fine_block, rev_runs)
print("fine equivariant to group reorder:",
      np.max(np.abs(refined_rev.data[:5] - refined.data[-5:])) < 1e-12)

# ...but the coarse block sees the group sequence, so order matters there
coarse_rev = him_coarse(refined_rev, coarse_block, rev_runs)
print("coarse sensitive to group order:  ",
      np.max(np.abs(coarse_rev.data - coarse.data[::-1])) > 1e-6)

# and within a group, the token order matters too
shuffled = Tensor(regions[0][::-1].copy())
print("fine sensitive to token order:    ",
      np.max(np.abs(him_fine(shuffled, fine_block, Runs([5])).data
                    - refined.data[:5][::-1])) > 1e-6)
