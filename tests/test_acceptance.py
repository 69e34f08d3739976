"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion (run with -s to see them inline).

The end-to-end training run is shared between the performance criterion
and the determinism criterion via a module fixture; determinism repeats
the full run and compares bit by bit.
"""

import math
import time

import numpy as np
import pytest

from survmamba.blocks import BiMambaBlock, IFMBlock
from survmamba.fusion import AlphaParam, adaptive_fuse, hazard_output_from, survival_nll
from survmamba.gradsuite import run_grad_checks
from survmamba.model import report_complexity
from survmamba.numerics import Runs, Tensor
from survmamba.ssm import bench_scan, discretize, selective_scan_recurrent
from survmamba.survstats import SurvivalOutcome, chi2_sf, concordance_index, kaplan_meier, logrank_test
from survmamba.synth import SynthSpec, synth_generate
from survmamba.training import TrainConfig, build_model, evaluate, train

import _oracles as oracle
from _oracles import apply_lti_kernel, flat_runs, lti_kernel, selective_scan_parallel


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


E2E_SPEC = SynthSpec(beta=2.0, n_patients=500, regions=4, patches_per_region=16,
                     processes=8, functions_per_process=4)
E2E_CFG = TrainConfig(d_model=32, e_expand=64, n_state=8, epochs=20, seed=0)


def _run_e2e():
    dataset = synth_generate(E2E_SPEC, seed=7)
    t0 = time.perf_counter()
    model, trace = train(dataset, fold=0, cfg=E2E_CFG)
    wall = time.perf_counter() - t0
    report = evaluate(model, dataset, fold=0)
    return {"dataset": dataset, "model": model, "trace": trace,
            "wall": wall, "report": report}


@pytest.fixture(scope="module")
def e2e_run():
    return _run_e2e()


def test_criterion_1_kernel_equivalence():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst_conv = 0.0
    worst_par = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 65))
        e = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        a = -np.exp(rng.normal(size=(e, n)))
        d0 = rng.uniform(0.05, 0.5, size=e)
        b0 = rng.normal(size=n)
        c0 = rng.normal(size=n)
        x = rng.normal(size=(m, e))
        mode = "euler" if rng.uniform() < 0.5 else "zoh"
        dp = discretize(
            Tensor(np.broadcast_to(d0, (m, e)).copy()),
            Tensor(a),
            Tensor(np.broadcast_to(b0, (m, n)).copy()),
            mode,
            runs=Runs.cached((m,)),
        )
        cproj = Tensor(np.broadcast_to(c0, (m, n)).copy())
        xt = Tensor(x)
        y_rec = selective_scan_recurrent(xt, dp, cproj).data
        y_par = selective_scan_parallel(xt, dp, cproj).data
        kern = lti_kernel(dp.Abar.data[0], dp.Bbar.data[0], c0, m)
        y_conv = apply_lti_kernel(x[None], kern)[0]
        worst_conv = max(worst_conv, float(np.max(np.abs(y_rec - y_conv))))
        worst_par = max(worst_par, float(np.max(np.abs(y_rec - y_par))))
    wall = time.perf_counter() - t0
    ok = worst_conv <= 1e-8 and worst_par <= 1e-10 and wall < 10.0
    _report(1, f"kernel equivalence over 100 LTI instances "
               f"(conv dev {worst_conv:.2e} <= 1e-8, parallel dev {worst_par:.2e} <= 1e-10, "
               f"{wall:.1f}s < 10s)", ok)


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    results = run_grad_checks("all")
    wall = time.perf_counter() - t0
    ok = True
    worst_prim = 0.0
    worst_rest = 0.0
    for name, err, _ in results:
        if name.startswith("primitive."):
            worst_prim = max(worst_prim, err)
            ok &= err <= 1e-6
        else:
            worst_rest = max(worst_rest, err)
            ok &= err <= 1e-4
    ok &= wall < 60.0
    _report(2, f"gradient suite over {len(results)} checks "
               f"(primitives {worst_prim:.2e} <= 1e-6, composite {worst_rest:.2e} <= 1e-4, "
               f"{wall:.1f}s < 60s)", ok)


def test_criterion_3_construction_identities():
    rng = np.random.default_rng(101)
    blk = BiMambaBlock(8, 16, 4, 4, rng=np.random.default_rng(55))
    x, runs = flat_runs(rng.normal(size=(2, 7, 8)))
    identity = np.array_equal(blk(x, runs).data, x.data)

    ifm = IFMBlock(8, 16, 4, 4, rng=np.random.default_rng(56))
    zero = np.array_equal(
        ifm(*flat_runs(rng.normal(size=(1, 5, 8)), rng.normal(size=(1, 5, 8)))).data,
        np.zeros((5, 8)),
    )

    hf, hc = Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6))
    mid = adaptive_fuse(hf, hc, AlphaParam(0.0)).data
    midpoint = np.array_equal(mid, (hf.data + hc.data) / 2.0)

    _report(3, f"construction identities (bi-mamba identity {identity}, "
               f"ifm zero {zero}, alpha midpoint {midpoint})", identity and zero and midpoint)


def test_criterion_4_statistics_oracles():
    rng = np.random.default_rng(102)
    cindex_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 201))
        times = np.round(rng.exponential(10.0, size=n), 1) + 0.1
        events = rng.integers(0, 2, size=n)
        risks = np.round(rng.normal(size=n), 1)
        ref = oracle.cindex_bruteforce(list(risks), list(times), list(events))
        outs = [SurvivalOutcome(t, int(e)) for t, e in zip(times, events)]
        if ref is None:
            continue
        cindex_ok &= concordance_index(risks, outs) == ref

    km = kaplan_meier([SurvivalOutcome(t, 1) for t in (1.0, 2.0, 3.0)])
    s1 = 1.0 - 1.0 / 3.0
    km_ok = np.array_equal(km.survival, [s1, s1 * 0.5, 0.0])
    km2 = kaplan_meier([SurvivalOutcome(1, 1), SurvivalOutcome(2, 0), SurvivalOutcome(3, 1)])
    km_ok &= np.array_equal(km2.times, [1.0, 3.0]) and km2.survival[-1] == 0.0

    lr_same = logrank_test([SurvivalOutcome(1, 1), SurvivalOutcome(4, 0)],
                           [SurvivalOutcome(1, 1), SurvivalOutcome(4, 0)])
    lr_sep = logrank_test([SurvivalOutcome(1, 1), SurvivalOutcome(2, 1)],
                          [SurvivalOutcome(10, 1), SurvivalOutcome(11, 1)])
    logrank_ok = lr_same.chi2 == 0.0 and lr_same.p == 1.0
    logrank_ok &= lr_sep.chi2 > 1.5 and lr_sep.p < 0.2

    p_ok = abs(chi2_sf(3.841, 1) - 0.05) < 1e-3
    ok = cindex_ok and km_ok and logrank_ok and p_ok
    _report(4, f"statistics oracles (c-index exact: {cindex_ok}, KM fixtures: {km_ok}, "
               f"log-rank fixtures: {logrank_ok}, p(3.841)={chi2_sf(3.841, 1):.5f})", ok)


def test_criterion_5_loss_fixtures():
    out = hazard_output_from(Tensor(np.array([0.5, 0.5])))
    expect = 2.0 * math.log(2.0)  # printed as 1.386294
    event = survival_nll(out, 1, censored=0).item()
    cens = survival_nll(out, 1, censored=1).item()
    fixtures_ok = abs(event - expect) < 1e-9 and abs(cens - expect) < 1e-9
    fixtures_ok &= abs(event - 1.386294) < 1e-6

    rng = np.random.default_rng(103)
    mono_ok = True
    for _ in range(1000):
        h = hazard_output_from(Tensor(rng.uniform(0.0, 1.0, size=int(rng.integers(2, 9)))))
        mono_ok &= bool(np.all(np.diff(h.survival.data) <= 1e-15))
    ok = fixtures_ok and mono_ok
    _report(5, f"loss fixtures (event {event:.9f}, censored {cens:.9f}, "
               f"monotone on 1000 heads: {mono_ok})", ok)


def test_criterion_6_end_to_end(e2e_run):
    rep = e2e_run["report"]
    wall = e2e_run["wall"]
    ok = rep.c_index is not None and rep.c_index >= 0.75
    ok &= rep.p_value < 0.05 and not rep.logrank_degenerate
    ok &= wall < 600.0
    _report(6, f"end-to-end synthetic (c-index {rep.c_index:.4f} >= 0.75, "
               f"log-rank p {rep.p_value:.2e} < 0.05, train {wall:.0f}s < 600s)", ok)


def test_criterion_7_determinism(e2e_run):
    second = _run_e2e()
    trace_ok = e2e_run["trace"] == second["trace"]
    c_ok = e2e_run["report"].c_index == second["report"].c_index
    risks_ok = np.array_equal(e2e_run["report"].risks, second["report"].risks)
    ok = trace_ok and c_ok and risks_ok
    _report(7, f"determinism (trace bit-identical: {trace_ok}, "
               f"c-index bit-identical: {c_ok}, risks bit-identical: {risks_ok})", ok)


def test_criterion_8_complexity_and_scaling():
    from test_training import _closed_form_params

    count_ok = True
    for d, e, n, w in ((6, 8, 2, 2), (4, 8, 4, 3), (8, 16, 8, 4)):
        spec = SynthSpec(n_patients=10, regions=2, patches_per_region=3, processes=2,
                         functions_per_process=2, genes_per_function=3, feature_dim=5)
        ds = synth_generate(spec, seed=1)
        cfg = TrainConfig(d_model=d, e_expand=e, n_state=n, conv_width=w,
                          genomics_hidden=4, epochs=0, seed=0)
        model = build_model(ds, cfg)
        audit = _closed_form_params(d, e, n, w, d_raw=5, n_fns=4, genes=3, hidden=4, t_bins=4)
        count_ok &= report_complexity(model)["param_count"] == audit

    best_r2 = -1.0
    for _ in range(3):  # timing on shared hardware: take the best of 3 fits
        rows = bench_scan([1024, 2048, 4096, 8192], channels=4, state=4,
                          reps=9, seed=0, reduce="min")
        m = np.array([r["length"] for r in rows], dtype=float)
        t = np.array([r["seconds"] for r in rows])
        a = np.vstack([m, np.ones_like(m)]).T
        coef, *_ = np.linalg.lstsq(a, t, rcond=None)
        pred = a @ coef
        r2 = 1.0 - np.sum((t - pred) ** 2) / np.sum((t - t.mean()) ** 2)
        best_r2 = max(best_r2, float(r2))
        if best_r2 >= 0.98:
            break
    ok = count_ok and best_r2 >= 0.98
    _report(8, f"complexity (parameter audits exact: {count_ok}, "
               f"recurrent scaling R^2 {best_r2:.4f} >= 0.98)", ok)


def test_e2e_loss_trace_smoothed_nonincreasing(e2e_run):
    # pipeline property: 5-epoch smoothed loss trace never rises
    sm = np.convolve(e2e_run["trace"], np.ones(5) / 5.0, mode="valid")
    assert np.all(np.diff(sm) <= 1e-12)


def test_e2e_km_split_separates(e2e_run):
    rep = e2e_run["report"]
    assert rep.km_low.value_at(rep.km_low.times[-1]) >= rep.km_high.value_at(rep.km_high.times[-1])
