"""What the composite blocks do at construction time and under symmetry.

A freshly built bidirectional block has a zero output projection, so the
residual path makes it an exact identity; the fusion block has no
residual, so it starts at exactly zero. Both facts make early training
stable and give bit-exact tests. The script also demonstrates the two
architectural symmetries: reversing time while swapping direction
parameters, and swapping modalities while swapping their parameter sets.
Both blocks take flat (L, D) token rows holding independent sequences
("runs") end to end, with the Runs of their lengths.
"""

import numpy as np

from survmamba import BiMambaBlock, IFMBlock, Runs, Tensor

rng = np.random.default_rng(1)

blk = BiMambaBlock(d_model=8, e_expand=16, n_state=4, conv_width=4,
                   rng=np.random.default_rng(7))
runs = Runs([10, 7])  # two sequences of 10 and 7 tokens
tokens = rng.normal(size=(runs.rows, 8))
out = blk(Tensor(tokens), runs)
print("fresh bidirectional block is the identity:", np.array_equal(out.data, tokens))

ifm = IFMBlock(d_model=8, e_expand=16, n_state=4, conv_width=4,
               rng=np.random.default_rng(8))
pair = Runs([6])
za = rng.normal(size=(6, 8))
zb = rng.normal(size=(6, 8))
print("fresh fusion block returns zero:        ",
      np.array_equal(ifm(Tensor(za), Tensor(zb), pair).data, np.zeros((6, 8))))

# make both blocks non-trivial before probing symmetries
noise = np.random.default_rng(9)
for _, p in blk.named_parameters():
    p.data += noise.normal(scale=0.3, size=p.shape)
for _, p in ifm.named_parameters():
    p.data += noise.normal(scale=0.3, size=p.shape)

# time-reversal symmetry: swap the direction parameter sets, feed each
# sequence reversed, and each output sequence reverses
fwd_out = blk(Tensor(tokens), runs).data
blk.fwd, blk.bwd = blk.bwd, blk.fwd
rev_out = blk(Tensor(runs.flip(tokens)), runs).data
print("direction swap + reverse == reverse(out):",
      np.max(np.abs(rev_out - runs.flip(fwd_out))) < 1e-12)

# modality-slot symmetry: swap inputs, per-modality params, and the two
# halves of the output projection
base = ifm(Tensor(za), Tensor(zb), pair).data
e = ifm.e_expand
ifm.m1, ifm.m2 = ifm.m2, ifm.m1
w = ifm.linear_out.weight.data
w[:] = np.concatenate([w[e:], w[:e]], axis=0)
swapped = ifm(Tensor(zb), Tensor(za), pair).data
print("modality swap leaves fusion unchanged:   ",
      np.max(np.abs(base - swapped)) < 1e-12)
