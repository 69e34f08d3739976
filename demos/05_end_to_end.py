"""A complete small run: synthesize paired-modality data with a planted
risk factor, train one fold, and evaluate on the held-out fold.

Scaled down from the acceptance configuration so it finishes in well
under a minute; raise n_patients/epochs toward (500, 20) to reproduce
the full run.
"""

import time

import numpy as np

from survmamba import (
    SynthSpec,
    TrainConfig,
    evaluate,
    report_complexity,
    synth_generate,
    train,
)
from survmamba.synth import planted_factor_readout
from survmamba.survstats import concordance_index

spec = SynthSpec(n_patients=120, regions=3, patches_per_region=8,
                 processes=4, functions_per_process=3, genes_per_function=3,
                 feature_dim=8, beta=2.0, noise=0.1, censoring_rate=0.25)
dataset, latents = synth_generate(spec, seed=11, return_latents=True)

outcomes = [r.outcome for r in dataset.records]
print(f"patients: {len(dataset)}  censored: {np.mean([r.censored for r in dataset.records]):.0%}")
print(f"oracle c-index of the planted factor: "
      f"{concordance_index(latents, outcomes):.3f}")
readout = [planted_factor_readout(r, spec) for r in dataset.records]
print(f"c-index of the linear gene readout:   "
      f"{concordance_index(readout, outcomes):.3f}")

cfg = TrainConfig(d_model=16, e_expand=32, n_state=4, epochs=8, seed=0,
                  genomics_hidden=16, align_len=32)
t0 = time.perf_counter()
model, trace = train(dataset, fold=0, cfg=cfg)
print(f"\ntrained {cfg.epochs} epochs in {time.perf_counter() - t0:.1f}s")
print("loss trace:", " ".join(f"{v:.3f}" for v in trace))

comp = report_complexity(model, regions=spec.regions,
                         patches_per_region=spec.patches_per_region)
print(f"parameters: {comp['param_count']:,}   "
      f"forward flops estimate: {comp['flops_estimate'] / 1e6:.1f}M")

report = evaluate(model, dataset, fold=0)
print(f"\nheld-out c-index: {report.c_index:.3f}")
print(f"median-split log-rank: chi2 = {report.chi2:.2f}, p = {report.p_value:.2e}")
for name, curve in (("low", report.km_low), ("high", report.km_high)):
    if curve is not None:  # the high stratum is empty when all risks tie
        print(f"{name} stratum survival at last event: "
              f"{curve.survival[-1] if curve.times.size else 1.0:.3f}")
