"""The selective scan against the recurrence written out by hand.

The selective scan computes h_t = Abar_t * h_{t-1} + Bbar_t * x_t,
y_t = <C_t, h_t>, with Abar = exp(delta * A) and Bbar = delta * B
("euler") or ((Abar - 1) / A) * B ("zoh"). It takes independent
sequences ("runs") as flat rows laid end to end, with the Runs of their
lengths, and starts each run from h = 0. This script checks the
library's scan against a plain loop over that recurrence in both modes,
run by run, then times the scan against sequence length.
"""

import numpy as np

from survmamba import Runs, Tensor, bench_scan, discretize, selective_scan_recurrent

rng = np.random.default_rng(0)

# -- a small selective (time-varying) instance: two runs of 12 and 7 steps ---

runs = Runs([12, 7])
L, E, N = runs.rows, 4, 6
A = -np.exp(rng.normal(size=(E, N)))         # continuous evolution, < 0
delta = rng.uniform(0.05, 0.8, size=(L, E))  # per-step timescales
Bproj = rng.normal(size=(L, N))
Cproj = rng.normal(size=(L, N))
x = rng.normal(size=(L, E))

for mode in ("euler", "zoh"):
    dp = discretize(Tensor(delta), Tensor(A), Tensor(Bproj), mode, runs=runs)
    y_scan = selective_scan_recurrent(Tensor(x), dp, Tensor(Cproj)).data
    y_loop = np.zeros((L, E))
    for start, size in zip(runs.starts, runs.sizes):
        h = np.zeros((E, N))
        for t in range(start, start + size):
            abar = np.exp(delta[t][:, None] * A)
            if mode == "euler":
                bbar = delta[t][:, None] * Bproj[t]
            else:
                bbar = (abar - 1.0) / A * Bproj[t]
            h = abar * h + bbar * x[t][:, None]
            y_loop[t] = h @ Cproj[t]
    print(f"{mode:5s}: |scan - loop| = {np.max(np.abs(y_scan - y_loop)):.3e}")

# -- timing: the recurrence is linear in sequence length ---------------------

print("\n length   seconds")
for row in bench_scan([256, 1024, 4096], channels=4, state=4, reps=3):
    print(f"{row['length']:7d}   {row['seconds']:.6f}")
