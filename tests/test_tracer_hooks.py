"""The benchmark's tracer (perfbench/spans.py) wraps program callables by
module and attribute name. A renamed or bypassed hook would otherwise
show only as a missing per-layer figure in a traced benchmark run."""

import sys
from pathlib import Path

import survmamba.training as sm_training
from survmamba.synth import SynthSpec, synth_generate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans


def test_tracer_records_every_stage_and_uninstalls():
    spans = _tracer_module()
    ds = synth_generate(SynthSpec(n_patients=10, regions=2, patches_per_region=3, processes=2,
                                  functions_per_process=2, genes_per_function=2, feature_dim=4), seed=3)
    cfg = sm_training.TrainConfig(d_model=6, e_expand=8, n_state=2, conv_width=2,
                                  genomics_hidden=4, align_len=8, epochs=1, seed=0)
    originals = (sm_training.train, sm_training.evaluate, sm_training.build_model)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.recording = True
        model, _ = sm_training.train(ds, 0, cfg)
        sm_training.evaluate(model, ds, 0)
    finally:
        tracer.uninstall()
    names = {span["name"] for span in tracer.dump()}
    assert {"him.image.fine", "him.image.coarse", "him.genomics.fine", "him.genomics.coarse", "ifm.fine",
            "ifm.coarse", "ssm.scan", "head", "optim.step"} <= names
    assert tracer.counts["him.block_calls"] > 0
    assert (sm_training.train, sm_training.evaluate, sm_training.build_model) == originals
