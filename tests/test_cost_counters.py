"""Counts that do not drift, gated against committed ceilings.

Run time on a shared host spreads by 10-25% between runs of unchanged
code, so it can hide a real cost. The Python call count, the tape size
and the tracemalloc peak of one warmed desk patient-step, and the call
count and tracemalloc peak of one warmed scoring pass over a ragged
cohort, repeat from run to run, so a change that adds per-op work or
holds more memory shows in them. Each ceiling is the value measured when
it was set; a change that lowers a count lowers its ceiling with it, and
one that raises a count says why. No timing is gated here. The same two
profiles show that every tape op left in ``numerics`` is one the model
runs.
"""

import ast
import cProfile
import inspect
import tracemalloc

import numpy as np

import survmamba.numerics as numerics
from survmamba.data import PatientRecord
from survmamba.hierarchy import HierarchicalBag, default_catalog
from survmamba.model import ModelConfig, SurvMambaModel
from survmamba.optim import RAdam
from survmamba.synth import SynthSpec, synth_generate
from survmamba.training import TrainConfig, build_model

from test_hierarchy import _interior_nodes

# Measured under Python 3.11.7 and numpy 2.4.6. The call counts include
# numpy's own Python-level calls and the peaks numpy's allocations, so
# another numpy or Python version may need the ceilings set again from
# their measured values.
# Fell from 3,584 (the ragged pass from 18,054) when the genomics encoder
# stopped checking for a bare vector: one isinstance call fewer in each.
# Fell again from 3,583 (the ragged pass from 18,053) when each input came
# to be checked once, by the value that carries it: the scan no longer
# checks again what its DiscreteParams checked when built, the branch
# conv what its block checked, nor the histology encoder converts again
# the groups its bag converted.
DESK_STEP_CALLS = 3476
DESK_STEP_INTERIOR_NODES = 31
# Rose from 3,020,153 when each scan branch became one node: every desk
# scan fits one forward chunk, so it keeps its packed inputs and its Abar
# and state buffers for backward instead of recomputing them, and the
# branch keeps its conv output, that output's sigmoid and the
# pre-softplus timescale. Rose again from 5,271,396 when each block
# became one node running its two branches as one stacked scan: the
# backward of a stack holds both branches' adjoint and slab buffers at
# once, where two branch nodes held one branch's at a time.
DESK_STEP_PEAK_BYTES = 5464791
RAGGED_PASS_CALLS = 17396
# Fell from 9,836,840 when the scan began to free its chunk buffers
# before forming its unpacked output.
RAGGED_PASS_PEAK_BYTES = 9411101
SLACK = 0.02


def _calls(fn, *args, seen=None):
    """(Python calls made by fn(*args), its result). Summed over the
    profiler's own entries, one per code object: pstats keys them by
    (file, line, name), so it keeps only one of the functions that share a
    label, such as the dataclass __init__s, and which one varies between
    processes. The names of the ``numerics.py`` functions called go into
    the set seen, if one is given."""
    prof = cProfile.Profile()
    out = prof.runcall(fn, *args)
    stats = prof.getstats()
    if seen is not None:
        seen.update(e.code.co_name for e in stats if getattr(e.code, "co_filename", None) == numerics.__file__)
    return sum(entry.callcount for entry in stats), out


def _peak(fn, *args):
    """The tracemalloc peak in bytes of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _warmed_desk_step_counts(seen=None):
    """(Python calls, interior tape nodes, tracemalloc peak) of a desk
    patient-step as `train` takes it at batch size 1: zero the gradients,
    build the loss, read it, sweep it and step RAdam. Two steps run
    first, so every Runs the step needs is cached and every lazy import
    is done; the calls and the peak come from two further steps."""
    ds = synth_generate(SynthSpec(n_patients=12), seed=0)
    model = build_model(ds, TrainConfig(d_model=32, e_expand=64, n_state=8))
    optim = RAdam(model.named_parameters())
    rec = ds.records[0]

    def forward():
        optim.zero_grad()
        return model.loss(rec)

    def finish(loss):
        loss.item()
        loss.backward()
        optim.step()

    for _ in range(2):
        finish(forward())
    calls, loss = _calls(forward, seen=seen)
    nodes = _interior_nodes(loss)  # walked outside the profile, before the sweep frees the tape
    calls += _calls(finish, loss, seen=seen)[0]
    peak = _peak(lambda: finish(forward()))
    return calls, nodes, peak


def _warmed_ragged_pass_counts(seen=None):
    """(Python calls, tracemalloc peak) of `predict_risks` over 12 seeded
    patients of 4-12 regions of 4-48 patches on the ragged 42 x 352
    `default_catalog(1)`, at desk width; a first pass warms the Runs
    cache."""
    catalog = default_catalog(1)
    rng = np.random.default_rng(0)
    records = []
    for i in range(12):
        patches = rng.integers(4, 49, size=int(rng.integers(4, 13)))
        groups = [(f"r{j}", rng.normal(size=(int(k), 16))) for j, k in enumerate(patches)]
        records.append(PatientRecord(f"P{i:04d}", HierarchicalBag("histology", groups),
                                     rng.normal(size=catalog.n_genes), 1.0 + i, i % 2))
    model = SurvMambaModel(ModelConfig(d_model=32, e_expand=64, n_state=8), catalog, 16, seed=0)
    model.predict_risks(records)
    calls, _ = _calls(model.predict_risks, records, seen=seen)
    return calls, _peak(model.predict_risks, records)


def test_a_warmed_desk_patient_step_stays_within_its_ceilings():
    calls, nodes, peak = _warmed_desk_step_counts()
    assert calls <= DESK_STEP_CALLS * (1 + SLACK), calls
    assert nodes <= DESK_STEP_INTERIOR_NODES * (1 + SLACK), nodes
    assert peak <= DESK_STEP_PEAK_BYTES * (1 + SLACK), peak


def test_a_warmed_ragged_scoring_pass_stays_within_its_ceilings():
    calls, peak = _warmed_ragged_pass_counts()
    assert calls <= RAGGED_PASS_CALLS * (1 + SLACK), calls
    assert peak <= RAGGED_PASS_PEAK_BYTES * (1 + SLACK), peak


def test_every_tape_op_in_numerics_is_run_by_the_model():
    """Each function in numerics.py that records a tape node (calls
    ``_node``) is called by the warmed desk step or the ragged scoring
    pass; an op that only tests record belongs in tests/_oracles.py."""
    tree = ast.parse(inspect.getsource(numerics))
    ops = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
           and any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "_node" for c in ast.walk(fn))}
    assert {"linear", "segment_mean"} <= ops  # the walk finds them
    seen = set()
    _warmed_desk_step_counts(seen)
    _warmed_ragged_pass_counts(seen)
    assert ops - seen == set()
