"""Tests of the benchmark's own checks: the numpy transcription agrees
with the program on a tiny configuration, and every check rejects a
corrupted output.

    python3 -m pytest perfbench/tests -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import cohort  # noqa: E402
import run  # noqa: E402
import transcript as tx  # noqa: E402
from spans import Tracer  # noqa: E402
from survmamba.dataio import load_checkpoint, load_dataset  # noqa: E402
from survmamba.numerics import no_grad  # noqa: E402
from survmamba.training import TrainConfig, build_model, evaluate  # noqa: E402

TINY = {"d_model": 8, "e_expand": 12, "n_state": 3}
# mixed gene counts and a process whose functions are not contiguous in
# their bank, so the transcription's bank-row mapping is exercised
MIXED_FUNCTIONS = [("F0", [0, 1]), ("F1", [2, 3, 4]), ("F2", [5, 6]), ("F3", [7, 8, 9]), ("F4", [1, 9])]
MIXED_PROCESSES = [("P0", ["F0", "F2"]), ("P1", ["F1"]), ("P2", ["F3", "F4", "F0"])]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    work = tmp_path_factory.mktemp("cohort")
    spec = cohort.CohortSpec(patients=25, regions=(2, 4), patches=(1, 6), processes=MIXED_PROCESSES,
                             functions=MIXED_FUNCTIONS, feature_dim=5)
    dataset = load_dataset(cohort.write_cohort(spec, cohort.generate(spec, 3), work))
    cfg = TrainConfig(epochs=1, seed=3, **TINY)
    model = build_model(dataset, cfg)
    params = cohort.perturbed_parameters([(n, p.data) for n, p in model.named_parameters()], 5)
    cohort.write_checkpoint(params, work / "m.smck")
    load_checkpoint(model, work / "m.smck")
    return dataset, cfg, model, dict(params)


def test_generation_is_seeded_and_shapes_do_not_depend_on_seed():
    spec = cohort.CohortSpec(patients=6, regions=(2, 5), patches=(1, 9), processes=MIXED_PROCESSES,
                             functions=MIXED_FUNCTIONS)
    a, b, c = cohort.generate(spec, 1), cohort.generate(spec, 1), cohort.generate(spec, 2)
    assert all(np.array_equal(x["expr"], y["expr"]) for x, y in zip(a, b))
    shapes = lambda ps: sorted(tuple(h.shape[0] for h in p["hist"]) for p in ps)  # noqa: E731
    assert shapes(a) == shapes(c)
    assert not all(np.array_equal(x["expr"], y["expr"]) for x, y in zip(a, c))


def test_transcription_matches_program_risks_and_losses(tiny):
    dataset, cfg, model, params = tiny
    for rec in dataset.records:
        haz = run.transcribed_hazards(params, dataset, rec, cfg.align_len)
        with no_grad():
            out = model.forward(rec)
            loss = model.loss(rec).item()
        checks.check_values("risk", out.risk.item(), tx.risk(haz))
        checks.check_values("loss", loss, tx.nll(haz, rec.t_bin, rec.censored))
    risks = [tx.risk(run.transcribed_hazards(params, dataset, r, cfg.align_len)) for r in dataset.records]
    assert np.ptp(risks) > 1e-8  # fresh fusion blocks output zero and every risk ties


def test_values_check_rejects_risk_moved_by_1e_6(tiny):
    dataset, cfg, model, params = tiny
    rec = dataset.records[0]
    with no_grad():
        risk = model.forward(rec).risk.item()
    reference = tx.risk(run.transcribed_hazards(params, dataset, rec, cfg.align_len))
    checks.check_values("risk", [risk], [reference])
    with pytest.raises(checks.CheckFailed):
        checks.check_values("risk", [risk + 1e-6], [reference])


def test_loss_check_rejects_nan_and_negative():
    checks.check_losses([1.2, 0.0, 3.4])
    for bad in ([1.0, math.nan], [1.0, -1e-9], [math.inf], []):
        with pytest.raises(checks.CheckFailed):
            checks.check_losses(bad)


def test_directional_derivative_rejects_scaled_gradient(tiny):
    dataset, _, model, _ = tiny
    loss_at, _, grads = run.tape_gradient(model, dataset.records[1])
    checks.check_directional_derivative(loss_at, grads, np.random.default_rng(0))
    with pytest.raises(checks.CheckFailed):
        checks.check_directional_derivative(loss_at, [1.01 * g for g in grads], np.random.default_rng(0))


def test_first_step_check_rejects_scaled_gradient(tiny):
    dataset, cfg, _, _ = tiny
    theta0, theta1, grads = run.first_step(dataset, cfg)
    checks.check_first_step(theta0, theta1, grads, cfg.lr, cfg.weight_decay)
    with pytest.raises(checks.CheckFailed):
        checks.check_first_step(theta0, theta1, [1.01 * g for g in grads], cfg.lr, cfg.weight_decay)
    with pytest.raises(checks.CheckFailed):
        checks.check_first_step(theta0, theta1, grads, 1.01 * cfg.lr, cfg.weight_decay)


def test_risk_range_and_cindex_checks_reject_corruption(tiny):
    dataset, cfg, model, _ = tiny
    rep = evaluate(model, dataset, 0)
    recs = [r for r in dataset.records if r.patient_id in rep.patient_ids]
    times = [r.time_months for r in recs]
    events = [1 - r.censored for r in recs]
    checks.check_risk_range(rep.risks, cfg.t_bins)
    checks.check_cindex(rep.c_index, rep.risks, times, events)
    for bad in (0.0, -float(cfg.t_bins), 1e-9):
        risks = rep.risks.copy()
        risks[0] = bad
        with pytest.raises(checks.CheckFailed):
            checks.check_risk_range(risks, cfg.t_bins)
    with pytest.raises(checks.CheckFailed):
        checks.check_cindex(rep.c_index + 1e-6, rep.risks, times, events)
    with pytest.raises(checks.CheckFailed):
        checks.check_cindex(rep.c_index, -rep.risks, times, events)


def test_brute_force_cindex_counts_ties_as_half():
    # pairs (0,1), (0,2) comparable; (1,2) not, since 1 is censored
    assert checks.brute_force_cindex([2.0, 1.0, 2.0], [1.0, 2.0, 3.0], [1, 0, 1]) == 0.75


def _tracer_with(spans):
    tr = Tracer()
    tr.spans = [[name, s, e, parent, tid, 2 * i, 2 * i + 1] for i, (name, s, e, parent, tid) in enumerate(spans)]
    return tr


def test_self_time_is_duration_minus_children_on_one_thread():
    tr = _tracer_with([("root", 0.0, 10.0, None, 1), ("a", 2.0, 5.0, 0, 1), ("b", 3.0, 4.0, 1, 1),
                       ("c", 6.0, 7.0, 0, 1)])
    assert np.allclose(tr.self_times(), [8.0 - 2.0, 2.0, 1.0, 1.0])


def test_self_time_splits_concurrent_workers_and_idles_the_waiting_parent():
    tr = _tracer_with([("evaluate", 0.0, 10.0, None, 1), ("w1", 1.0, 9.0, 0, 2), ("w2", 2.0, 8.0, 0, 3)])
    own = tr.self_times()
    assert np.allclose(own, [2.0, 1.0 + 3.0 + 1.0, 3.0])
    assert math.isclose(own.sum(), 10.0)
