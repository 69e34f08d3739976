"""Synthetic paired-modality survival data with a planted risk factor.

Each patient draws a latent factor u ~ N(0, 1). The factor is planted
redundantly in both modalities: the designated histology region's patch
features and the designated genomic function's gene values have mean u,
everything else mean zero, all with shared noise scale. Survival time is
exponential with rate base_rate * exp(beta * u), so larger u means
earlier death; a coin with the configured censoring rate replaces the
death time by a uniform draw over (0, t). Everything is a deterministic
function of the seed. A ``SynthSpec`` checks its fields when it is
built, with the number check the model and training configs share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PatientRecord, finalize_dataset
from .errors import ConfigError, check_numbers
from .hierarchy import HierarchicalBag, make_grouping


@dataclass
class SynthSpec:
    """Generator sizes and rates. A count that is not a positive integer,
    or a rate that is not finite or out of its range, raises ConfigError
    at construction."""

    n_patients: int = 500
    regions: int = 4
    patches_per_region: int = 16
    processes: int = 8
    functions_per_process: int = 4
    genes_per_function: int = 4
    feature_dim: int = 16
    beta: float = 2.0  # signal strength on the latent factor
    noise: float = 0.1
    censoring_rate: float = 0.25
    base_rate: float = 1.0 / 24.0  # events per month at u = 0

    def __post_init__(self):
        counts = ("n_patients", "regions", "patches_per_region", "processes", "functions_per_process",
                  "genes_per_function", "feature_dim")
        check_numbers("synth spec", self, counts, integer=True)
        check_numbers("synth spec", self, ("beta", "noise", "censoring_rate", "base_rate"), integer=False)
        if any(getattr(self, name) < 1 for name in counts):
            raise ConfigError("synth spec: all counts must be >= 1")
        if not 0.0 <= self.censoring_rate < 1.0:
            raise ConfigError(f"synth spec: censoring rate {self.censoring_rate} outside [0, 1)")
        if self.noise < 0 or self.base_rate <= 0:
            raise ConfigError("synth spec: noise must be >= 0 and base_rate > 0")


def synth_generate(spec: SynthSpec, seed: int, t_bins: int = 4, return_latents: bool = False):
    """Generate a dataset (optionally also the latent factors, for
    oracle checks)."""
    rng = np.random.default_rng(seed)
    grouping = make_grouping(spec.processes, spec.functions_per_process, spec.genes_per_function)
    n_genes = spec.processes * spec.functions_per_process * spec.genes_per_function

    records = []
    latents = np.empty(spec.n_patients)
    for i in range(spec.n_patients):
        u = rng.standard_normal()
        latents[i] = u

        groups = []
        for r in range(spec.regions):
            mean = u if r == 0 else 0.0  # region 0 carries the signal
            feats = mean + spec.noise * rng.standard_normal((spec.patches_per_region, spec.feature_dim))
            groups.append((f"R{r:03d}", feats))
        bag = HierarchicalBag(modality="histology", groups=groups)

        expr = spec.noise * rng.standard_normal(n_genes)
        expr[: spec.genes_per_function] += u  # function F0000 carries the signal

        t_death = rng.exponential(1.0 / (spec.base_rate * np.exp(spec.beta * u)))
        if rng.uniform() < spec.censoring_rate:
            censored = 1
            time = t_death * rng.uniform(1e-6, 1.0)
        else:
            censored = 0
            time = t_death

        records.append(
            PatientRecord(
                patient_id=f"P{i:04d}",
                histology=bag,
                genomics=expr,
                time_months=float(time),
                censored=censored,
            )
        )

    dataset = finalize_dataset(records, grouping, t_bins=t_bins)
    if return_latents:
        return dataset, latents
    return dataset


def planted_factor_readout(record: PatientRecord, spec: SynthSpec) -> float:
    """Linear estimate of the latent factor from the designated genes;
    used as an oracle risk in tests."""
    return float(np.mean(record.genomics[: spec.genes_per_function]))
