"""Benchmark of survmamba training and held-out scoring, through the
program's public entry points only: load_dataset, build_model,
load_checkpoint, train and evaluate.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics untraced, the per-layer ones
with --trace 1). A traced run also writes its spans to
perfbench/results/. See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# setup_s is the median over SETUP_SAMPLES samples; a sample times as many
# consecutive set-ups as fill about SETUP_SAMPLE_SECONDS. The host switches
# between fast and slow phases a fraction of a second long, so a single
# short set-up lands in one phase and the median of many flips between them.
SETUP_SAMPLES = 7
SETUP_SAMPLE_SECONDS = 1.0

DESK = {"d_model": 32, "e_expand": 64, "n_state": 8}
PAPER = {"d_model": 512, "e_expand": 1024, "n_state": 16}


def workloads(cohort):
    desk_catalog = cohort.uniform_catalog(8, 4, 4)
    from survmamba.hierarchy import default_catalog

    full = default_catalog(8)
    return {
        "train_desk": dict(kind="train", model=DESK, checks=4, spec=cohort.CohortSpec(
            patients=60, regions=(4, 4), patches=(16, 16), processes=desk_catalog[0], functions=desk_catalog[1])),
        "train_paper": dict(kind="train", model=PAPER, checks=2, spec=cohort.CohortSpec(
            patients=3, regions=(8, 8), patches=(32, 32), processes=desk_catalog[0], functions=desk_catalog[1])),
        "eval_ragged": dict(kind="eval", model=DESK, checks=6, spec=cohort.CohortSpec(
            patients=60, regions=(4, 12), patches=(4, 48), processes=full.processes, functions=full.functions)),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def timed_setups(setup):
    """(median seconds per set-up, last result) of repeated setup() calls.

    The first call is not counted: it sets how many calls make a sample."""
    t0 = time.perf_counter()
    result = setup()
    per_sample = max(1, round(SETUP_SAMPLE_SECONDS / (time.perf_counter() - t0)))
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        for _ in range(per_sample):
            result = None  # let the previous result go before the next is built
            result = setup()
        samples.append((time.perf_counter() - t0) / per_sample)
    return statistics.median(samples), result


def transcribed_hazards(params, dataset, rec, align_len):
    import transcript as tx

    g = dataset.grouping
    return tx.hazards(params, [np.asarray(t) for _, t in rec.histology.groups], g.processes, g.functions,
                      rec.genomics, align_len)


def run_train(wl, seed, seconds, tracer, work):
    import checks
    import cohort
    import survmamba.dataio as sm_dataio
    import survmamba.training as sm_training
    import transcript as tx
    from survmamba.numerics import no_grad

    spec = wl["spec"]
    manifest = cohort.write_cohort(spec, cohort.generate(spec, seed), work)
    cfg = sm_training.TrainConfig(epochs=1, seed=seed, **wl["model"])
    out = {}

    tracer.recording = True
    t_begin = time.perf_counter()
    setup_s, dataset = timed_setups(lambda: sm_dataio.load_dataset(manifest))
    steps_per_call = len(dataset.fold_records(0, held_out=False)) * cfg.epochs
    per_call, traces, steps = [], [], 0
    t_loop = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        model, trace = sm_training.train(dataset, 0, cfg)
        per_call.append((time.perf_counter() - t0) * 1000.0 / steps_per_call)
        traces.append(trace)
        steps += steps_per_call
        if time.perf_counter() - t_loop >= seconds:
            break
    out["wall_s"] = time.perf_counter() - t_begin
    out["metrics"] = {"setup_s": setup_s, "ms_per_patient": statistics.median(per_call),
                      "peak_rss_mb": peak_rss_mb()}
    out["attempted"] = steps
    tracer.recording = False
    out["flops"] = model_flops(model, spec)

    def run_checks():
        for trace in traces:
            checks.check_losses(trace)
        rng = np.random.default_rng(seed)
        records = dataset.fold_records(0, held_out=False)
        sample = [records[i] for i in rng.choice(len(records), wl["checks"], replace=False)]
        params = dict((n, p.data) for n, p in model.named_parameters())
        with no_grad():
            program = [model.loss(r).item() for r in sample]
        reference = [tx.nll(transcribed_hazards(params, dataset, r, cfg.align_len), r.t_bin, r.censored)
                     for r in sample]
        checks.check_values("trained-model losses", program, reference)
        loss_at, _, grads = tape_gradient(model, sample[0])
        checks.check_directional_derivative(loss_at, grads, rng)
        checks.check_first_step(*first_step(dataset, cfg), cfg.lr, cfg.weight_decay)

    out["correct"] = guarded(run_checks)
    return out


def first_step(dataset, cfg):
    """(parameters before, parameters after, gradient) of train()'s first
    optimizer step at batch size 1. Fold 0 of a two-patient cohort holds
    out the first patient, so train() takes one step on the second."""
    import survmamba.training as sm_training
    from survmamba.data import SurvivalDataset, make_folds

    pair = SurvivalDataset(records=dataset.records[:2], grouping=dataset.grouping,
                           bin_edges=dataset.bin_edges, folds=make_folds(2))
    stepped, _ = sm_training.train(pair, 0, replace(cfg, epochs=1, batch_size=1))
    _, before, grads = tape_gradient(sm_training.build_model(pair, cfg), pair.records[1])
    return before, [p.data for p in stepped.parameters()], grads


def tape_gradient(model, rec):
    """(loss_at, parameter arrays, tape gradients) for one patient's loss."""
    from survmamba.numerics import no_grad

    params = model.parameters()
    model.zero_grad()
    model.loss(rec).backward()
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    model.zero_grad()

    def loss_at(step, direction):
        saved = [p.data.copy() for p in params]
        try:
            for p, d in zip(params, direction):
                p.data += step * d
            with no_grad():
                return model.loss(rec).item()
        finally:
            for p, s in zip(params, saved):
                p.data[...] = s

    return loss_at, [p.data.copy() for p in params], grads


def run_eval(wl, seed, seconds, tracer, work):
    import checks
    import cohort
    import survmamba.dataio as sm_dataio
    import survmamba.training as sm_training
    import transcript as tx

    spec = wl["spec"]
    manifest = cohort.write_cohort(spec, cohort.generate(spec, seed), work)
    cfg = sm_training.TrainConfig(seed=seed, **wl["model"])
    fresh = sm_training.build_model(sm_dataio.load_dataset(manifest), cfg)
    params = cohort.perturbed_parameters([(n, p.data) for n, p in fresh.named_parameters()], seed)
    ckpt = work / "model.smck"
    cohort.write_checkpoint(params, ckpt)
    out = {}

    tracer.recording = True
    def setup():
        dataset = sm_dataio.load_dataset(manifest)
        model = sm_training.build_model(dataset, cfg)
        sm_dataio.load_checkpoint(model, ckpt)
        return dataset, model

    t_begin = time.perf_counter()
    setup_s, (dataset, model) = timed_setups(setup)
    per_round, scored = [], 0
    t_loop = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reports = [sm_training.evaluate(model, dataset, fold) for fold in range(5)]
        per_round.append((time.perf_counter() - t0) * 1000.0 / len(dataset))
        scored += len(dataset)
        if time.perf_counter() - t_loop >= seconds:
            break
    out["wall_s"] = time.perf_counter() - t_begin
    out["metrics"] = {"setup_s": setup_s, "ms_per_patient": statistics.median(per_round),
                      "peak_rss_mb": peak_rss_mb()}
    out["attempted"] = scored
    tracer.recording = False
    out["evaluate_calls"] = 5 * len(per_round)

    def run_checks():
        by_id = {r.patient_id: r for r in dataset.records}
        for rep in reports:
            checks.check_risk_range(rep.risks, cfg.t_bins)
            recs = [by_id[pid] for pid in rep.patient_ids]
            checks.check_cindex(rep.c_index, rep.risks, [r.time_months for r in recs], [1 - r.censored for r in recs])
        risk_of = {pid: r for rep in reports for pid, r in zip(rep.patient_ids, rep.risks)}
        rng = np.random.default_rng(seed)
        sample = [dataset.records[i] for i in rng.choice(len(dataset), wl["checks"], replace=False)]
        reference = [tx.risk(transcribed_hazards(dict(params), dataset, r, cfg.align_len)) for r in sample]
        checks.check_values("held-out risks", [risk_of[r.patient_id] for r in sample], reference)

    out["correct"] = guarded(run_checks)
    return out


def guarded(run_checks) -> bool:
    import checks

    try:
        run_checks()
    except checks.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return False
    return True


def model_flops(model, spec):
    """report_complexity's forward FLOPs, for uniform bags only."""
    from survmamba.model import report_complexity

    if spec.regions[0] != spec.regions[1] or spec.patches[0] != spec.patches[1]:
        return None
    return report_complexity(model, spec.regions[0], spec.patches[0])["flops_estimate"]


LAYER_UNITS = {
    "dataio.load_dataset_ms": "ms", "dataio.load_checkpoint_ms": "ms", "model.build_ms": "ms",
    "optim.init_ms": "ms", "enc.histology.fwd_ms": "ms", "enc.genomics.fwd_ms": "ms",
    "him.image.fine.fwd_ms": "ms", "him.image.coarse.fwd_ms": "ms", "him.genomics.fine.fwd_ms": "ms",
    "him.genomics.coarse.fwd_ms": "ms", "ifm.fine.fwd_ms": "ms", "ifm.coarse.fwd_ms": "ms",
    "head.fwd_ms": "ms", "ssm.discretize.fwd_ms": "ms", "ssm.scan.fwd_ms": "ms", "model.fwd_ms": "ms",
    "model.fwd_gflops": "GFLOP/s", "him.block_calls": "count", "numerics.tape_nodes": "count",
    "numerics.backward_ms": "ms", "optim.step_ms": "ms", "optim.state_mb": "MB", "ssm.scan_state_mb": "MB",
    "survstats.ms": "ms",
}


def layer_metrics(tracer, units, evaluate_calls, flops):
    """Per-layer metrics from the spans. units is the number of
    patient-steps trained or patients scored; set-up layers are per call,
    survstats per evaluate() call. A layer the workload does not reach
    reads 0."""
    by_name, _ = tracer.summary()

    def self_ms(name, per):
        row = by_name.get(name)
        return 1000.0 * row[0] / per if row and per else 0.0

    def per_call(name):
        row = by_name.get(name)
        return 1000.0 * row[0] / row[1] if row else 0.0

    fwd = by_name.get("model.fwd", [0.0, 0, 0.0])
    fwd_ms = 1000.0 * fwd[2] / units
    m = {
        "dataio.load_dataset_ms": per_call("dataio.load_dataset"),
        "dataio.load_checkpoint_ms": per_call("dataio.load_checkpoint"),
        "model.build_ms": per_call("model.build"),
        "optim.init_ms": per_call("optim.init"),
        "model.fwd_ms": fwd_ms,
        "model.fwd_gflops": flops / fwd_ms / 1e6 if flops else 0.0,
        "him.block_calls": tracer.counts["him.block_calls"] / units,
        "numerics.tape_nodes": tracer.counts["numerics.tape_nodes"] / units,
        "numerics.backward_ms": self_ms("numerics.backward", units),
        "optim.step_ms": self_ms("optim.step", units),
        "optim.state_mb": tracer.counts["optim.state_bytes"] / 2**20,
        "ssm.scan_state_mb": tracer.counts["scan_state_bytes"] / units / 2**20,
        "survstats.ms": self_ms("survstats", evaluate_calls),
    }
    for stage in ("enc.histology", "enc.genomics", "him.image.fine", "him.image.coarse", "him.genomics.fine",
                  "him.genomics.coarse", "ifm.fine", "ifm.coarse", "head", "ssm.discretize", "ssm.scan"):
        m[stage + ".fwd_ms"] = self_ms(stage, units)
    return {k: {"value": m[k], "unit": LAYER_UNITS[k]} for k in LAYER_UNITS}


E2E_UNITS = {"setup_s": "s", "ms_per_patient": "ms", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "survmamba" / "__init__.py").is_file():
        print(f"survmamba sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import cohort
    from spans import Tracer

    wls = workloads(cohort)
    if args.workload not in wls:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wls)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    wl = wls[args.workload]
    tracer = Tracer()
    if args.trace:
        tracer.install()
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    try:
        runner = run_train if wl["kind"] == "train" else run_eval
        out = runner(wl, args.seed, args.seconds, tracer, work)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        by_name, total_self = tracer.summary()
        metrics = layer_metrics(tracer, out["attempted"], out.get("evaluate_calls", 0), out.get("flops"))
        report = {"workload": args.workload, "seed": args.seed, "wall_s": out["wall_s"],
                  "span_self_s": total_self, "coverage": total_self / out["wall_s"],
                  "traced_end_to_end": out["metrics"], "layers": metrics,
                  "by_span": {k: {"self_s": v[0], "calls": v[1], "inclusive_s": v[2]} for k, v in by_name.items()},
                  "spans": tracer.dump()}
        (HERE / "results").mkdir(exist_ok=True)
        (HERE / "results" / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(report))
        print(f"traced: wall {out['wall_s']:.3f} s, span self total {total_self:.3f} s "
              f"({100 * total_self / out['wall_s']:.1f}%), ms_per_patient {out['metrics']['ms_per_patient']:.3f}",
              file=sys.stderr)
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in out["metrics"].items()}
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"], "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
