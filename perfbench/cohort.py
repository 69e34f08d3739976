"""Seeded synthetic cohorts and checkpoints, written in the documented
file formats (README "File formats") without the program's writers.

A cohort plants one latent risk factor u ~ N(0, 1) per patient in the
first region's patches and the first function's genes; survival time is
exponential with rate exp(2u) / 24 per month and a quarter of patients
are censored at a uniform fraction of that time.

Bag shapes come from a generator with a fixed seed and the cohort seed
only permutes them among patients, so every seed gives the same
multiset of shapes and the same work per pass over the cohort.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

T_BINS = 4
SHAPE_SEED = 20240412


@dataclass(frozen=True)
class CohortSpec:
    patients: int
    regions: tuple  # (low, high) inclusive, drawn per patient
    patches: tuple  # (low, high) inclusive, drawn per region
    processes: list  # [(process id, [function id, ...])]
    functions: list  # [(function id, [gene index, ...])]
    feature_dim: int = 16
    noise: float = 0.1


def uniform_catalog(n_processes, functions_per_process, genes_per_function):
    """Consecutive gene blocks grouped into consecutive function blocks."""
    functions = [(f"F{f:04d}", list(range(f * genes_per_function, (f + 1) * genes_per_function)))
                 for f in range(n_processes * functions_per_process)]
    processes = [(f"P{p:03d}", [fid for fid, _ in functions[p * functions_per_process:(p + 1) * functions_per_process]])
                 for p in range(n_processes)]
    return processes, functions


def generate(spec: CohortSpec, seed: int) -> list:
    """Patients as dicts: id, hist (list of (K, D) arrays), expr, time, censored."""
    shape_rng = np.random.default_rng(SHAPE_SEED)
    shapes = [shape_rng.integers(spec.patches[0], spec.patches[1] + 1,
                                 size=int(shape_rng.integers(spec.regions[0], spec.regions[1] + 1)))
              for _ in range(spec.patients)]
    rng = np.random.default_rng(seed)
    shapes = [shapes[i] for i in rng.permutation(spec.patients)]
    n_genes = 1 + max(g for _, genes in spec.functions for g in genes)
    signal_genes = spec.functions[0][1]
    out = []
    for i, patches in enumerate(shapes):
        u = rng.standard_normal()
        hist = [(u if r == 0 else 0.0) + spec.noise * rng.standard_normal((int(k), spec.feature_dim))
                for r, k in enumerate(patches)]
        expr = spec.noise * rng.standard_normal(n_genes)
        expr[signal_genes] += u
        t_death = rng.exponential(24.0 * np.exp(-2.0 * u))
        censored = int(rng.uniform() < 0.25)
        time = t_death * rng.uniform(1e-6, 1.0) if censored else t_death
        out.append({"id": f"P{i:04d}", "hist": hist, "expr": expr, "time": float(time), "censored": censored})
    return out


def _bag_text(groups) -> str:
    lines = [f"SMB1 {len(groups)} {groups[0][1].shape[1]}"]
    for gid, toks in groups:
        lines.append(f"{gid} {toks.shape[0]}")
        lines.extend(" ".join(map(repr, row)) for row in toks.tolist())
    return "\n".join(lines) + "\n"


def write_cohort(spec: CohortSpec, patients: list, out_dir: Path) -> Path:
    """Manifest, grouping and per-patient bags; returns the manifest path.

    Bin edges are quantiles of the observed event times, so the program
    computes none at load time.
    """
    (out_dir / "patients").mkdir(parents=True, exist_ok=True)
    grouping = {"processes": [{"id": p, "functions": f} for p, f in spec.processes],
                "functions": [{"id": f, "genes": g} for f, g in spec.functions]}
    (out_dir / "grouping.json").write_text(json.dumps(grouping))
    rows = []
    for p in patients:
        hist_rel, gen_rel = f"patients/{p['id']}.hist.smb", f"patients/{p['id']}.gen.smb"
        (out_dir / hist_rel).write_text(_bag_text([(f"R{r:03d}", t) for r, t in enumerate(p["hist"])]))
        (out_dir / gen_rel).write_text(_bag_text([("expr", p["expr"][None, :])]))
        rows.append({"id": p["id"], "histology": hist_rel, "genomics": gen_rel,
                     "time_months": p["time"], "censored": p["censored"]})
    observed = [p["time"] for p in patients if not p["censored"]] or [p["time"] for p in patients]
    edges = [0.0] + [float(np.quantile(observed, k / T_BINS)) for k in range(1, T_BINS)] + [float("inf")]
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps({"patients": rows, "grouping": "grouping.json", "bins": edges}))
    return manifest


def write_checkpoint(named_arrays, path: Path):
    """SMCK: magic, uint32 count, then per parameter uint32 name length,
    UTF-8 name, uint32 rank, rank uint64 dims, little-endian float64 data."""
    with open(path, "wb") as fh:
        fh.write(b"SMCK" + struct.pack("<I", len(named_arrays)))
        for name, arr in named_arrays:
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)) + nb + struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def perturbed_parameters(named_arrays, seed: int) -> list:
    """Every parameter moved by a seeded uniform draw of about one
    fan-in scale, so zero-initialised output projections become non-zero
    and blocks stop being identities."""
    rng = np.random.default_rng(seed)
    out = []
    for name, arr in named_arrays:
        scale = 1.0 / np.sqrt(arr.shape[-2]) if arr.ndim >= 2 else 0.2
        out.append((name, arr + rng.uniform(-scale, scale, arr.shape)))
    return out
