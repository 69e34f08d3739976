"""Counts that do not drift, gated against committed ceilings.

Run time on a shared host spreads by 10-25% between runs of unchanged
code, so it can hide a real cost. The Python call count and the tape
size of one warmed patient-step repeat exactly from run to run, so a
change that adds per-op work shows in them. Each ceiling is the value
measured when it was set; a change that lowers a count lowers its
ceiling with it, and one that raises a count says why. No timing is
gated here.
"""

import cProfile
import pstats

from survmamba.optim import RAdam
from survmamba.synth import SynthSpec, synth_generate
from survmamba.training import TrainConfig, build_model

from test_hierarchy import _interior_nodes

# Measured under Python 3.11.7 and numpy 2.4.6. The call count includes
# numpy's own Python-level calls, so another numpy or Python version may
# need the ceiling set again from its measured value.
DESK_STEP_CALLS = 11180
DESK_STEP_INTERIOR_NODES = 213
SLACK = 0.02


def _warmed_desk_step_counts():
    """(Python calls, interior tape nodes) of one desk patient-step as
    `train` takes it at batch size 1: zero the gradients, build the loss,
    read it, sweep it and step RAdam. Two steps run first, so every Runs
    the step needs is cached and every lazy import is done."""
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
    prof = cProfile.Profile()
    loss = prof.runcall(forward)
    nodes = _interior_nodes(loss)  # walked outside the profile, before the sweep frees the tape
    prof.runcall(finish, loss)
    return pstats.Stats(prof).total_calls, nodes


def test_a_warmed_desk_patient_step_stays_within_its_ceilings():
    calls, nodes = _warmed_desk_step_counts()
    assert calls <= DESK_STEP_CALLS * (1 + SLACK), calls
    assert nodes <= DESK_STEP_INTERIOR_NODES * (1 + SLACK), nodes
