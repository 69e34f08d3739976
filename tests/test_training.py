"""Optimizer behavior, training loop contracts, evaluation, and the
complexity reporter."""

import tracemalloc

import numpy as np
import pytest

from survmamba import training
from survmamba.errors import ConfigError, NonFiniteError
from survmamba.model import report_complexity
from survmamba.numerics import Tensor
from survmamba.optim import CHUNK, RAdam, rho_t
from survmamba.synth import SynthSpec, planted_factor_readout, synth_generate
from survmamba.training import TrainConfig, build_model, evaluate, train

import _oracles as oracle


def _small_ds(n=30, seed=2, **kw):
    spec = SynthSpec(n_patients=n, regions=2, patches_per_region=4, processes=2,
                     functions_per_process=2, genes_per_function=2, feature_dim=5, **kw)
    return spec, synth_generate(spec, seed=seed)


def _small_cfg(**kw):
    base = dict(d_model=6, e_expand=8, n_state=2, conv_width=2, t_bins=4,
                genomics_hidden=4, align_len=8, epochs=2, seed=1)
    base.update(kw)
    return TrainConfig(**base)


class TestRAdam:
    def test_decay_only_with_zero_gradients(self):
        p = Tensor(np.full(3, 2.0), requires_grad=True)
        opt = RAdam([("p", p)], lr=0.1, weight_decay=0.05)
        for _ in range(4):
            opt.step()  # grad is None -> pure decay
        expect = 2.0 * (1.0 - 0.1 * 0.05) ** 4
        assert np.max(np.abs(p.data - expect)) < 1e-12

    def test_momentum_branch_first_four_steps(self):
        # with beta2 = 0.999, the rectification length stays <= 4 until t = 5
        for t in range(1, 5):
            assert rho_t(0.999, t) <= 4.0
        assert rho_t(0.999, 5) > 4.0

    def test_quadratic_convergence(self):
        p = Tensor(np.asarray(0.0), requires_grad=True)
        opt = RAdam([("p", p)], lr=0.1, weight_decay=0.0)
        for _ in range(500):
            p.zero_grad()
            p.grad = np.asarray(2.0 * (p.data - 3.0))
            opt.step()
        assert abs(float(p.data) - 3.0) < 0.05

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(size=12)
        p = Tensor(np.asarray(0.7), requires_grad=True)
        opt = RAdam([("p", p)], lr=0.03, weight_decay=0.01)
        for g in grads:
            p.grad = np.asarray(g)
            opt.step()
        ref = oracle.radam_reference(0.7, grads, lr=0.03, wd=0.01)
        assert abs(float(p.data) - ref) < 1e-14

    def test_chunked_step_matches_gather_step_bitwise(self):
        # 2 full chunks and a partial one; eight steps cover the momentum
        # phase (t <= 4) and the rectified phase (t >= 5). Each step every
        # parameter gets its gradient one of three ways: accumulated into its
        # view, left None, or rebound to a fresh array.
        shapes = [(3, CHUNK // 2), (5,), (CHUNK + 7,), (2, 2, 3), ()]
        rng = np.random.default_rng(3)
        init = [rng.normal(size=s) for s in shapes]
        mine = [(f"p{i}", Tensor(a.copy(), requires_grad=True)) for i, a in enumerate(init)]
        ref = [(f"p{i}", Tensor(a.copy(), requires_grad=True)) for i, a in enumerate(init)]
        total = sum(a.size for a in init)
        assert 2 * CHUNK < total < 3 * CHUNK
        opt = RAdam(mine, lr=0.01, weight_decay=0.05)
        oracle_opt = oracle.GatherRAdam(ref, lr=0.01, weight_decay=0.05)
        for t in range(1, 9):
            opt.zero_grad()
            for i, ((_, p), (_, q)) in enumerate(zip(mine, ref)):
                g = rng.normal(size=p.shape)
                mode = (i + t) % 3
                if mode == 0:
                    p.grad += g
                    q.grad = g
                elif mode == 1:
                    p.grad = q.grad = None
                else:
                    p.grad, q.grad = g.copy(), g
            opt.step()
            oracle_opt.step()
            for (_, p), (_, q) in zip(mine, ref):
                assert np.array_equal(p.data, q.data)
            assert np.array_equal(opt.m, oracle_opt.m)
            assert np.array_equal(opt.v, oracle_opt.v)

    def test_state_is_four_vectors_and_step_allocates_nothing(self):
        params = [(f"p{i}", Tensor(np.ones((70, 1000)), requires_grad=True)) for i in range(3)]
        opt = RAdam(params)
        state = sum(a.nbytes for a in vars(opt).values() if isinstance(a, np.ndarray))
        assert state == 4 * 8 * 210_000 + 2 * 8 * CHUNK
        opt.zero_grad()
        for _, p in params:
            p.grad += 1.0
        tracemalloc.start()
        try:
            opt.step()
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestTrain:
    def test_zero_epochs_returns_initialized_model(self):
        _, ds = _small_ds()
        cfg = _small_cfg(epochs=0)
        model, trace = train(ds, 0, cfg)
        fresh = build_model(ds, cfg)
        assert trace == []
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), fresh.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_deterministic_traces(self):
        _, ds = _small_ds()
        cfg = _small_cfg()
        _, t1 = train(ds, 0, cfg)
        _, t2 = train(ds, 0, cfg)
        assert t1 == t2

    def test_loss_decreases_on_signal(self):
        _, ds = _small_ds(n=60, seed=4)
        cfg = _small_cfg(epochs=6, lr=1e-3)
        _, trace = train(ds, 0, cfg)
        assert trace[-1] < trace[0]

    def test_nonfinite_loss_names_patient(self):
        _, ds = _small_ds()
        ds.records[3].genomics[:] = np.nan
        held_in = ds.fold_records(0, held_out=False)
        assert any(r.patient_id == "P0003" for r in held_in)
        with pytest.raises(NonFiniteError, match="P0003"):
            train(ds, 0, _small_cfg())

    def test_fold_range_checked(self):
        _, ds = _small_ds()
        with pytest.raises(ConfigError):
            train(ds, 7, _small_cfg())

    def test_bin_count_mismatch_raises(self):
        _, ds = _small_ds()
        with pytest.raises(ConfigError, match="bins"):
            build_model(ds, _small_cfg(t_bins=3))

    def test_batch_accumulation_mode_runs(self):
        _, ds = _small_ds()
        cfg = _small_cfg(batch_size=4, epochs=1)
        _, trace = train(ds, 0, cfg)
        assert len(trace) == 1 and np.isfinite(trace[0])

    @pytest.mark.parametrize("batch_size", [1, 3, 5])
    def test_matches_gather_reference_bitwise(self, batch_size):
        # 24 in-fold records: batch 5 leaves a partial last batch per epoch
        _, ds = _small_ds()
        cfg = _small_cfg(batch_size=batch_size)
        model, trace = train(ds, 0, cfg)
        ref_model, ref_trace = _reference_train(ds, 0, cfg)
        assert trace == ref_trace
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), ref_model.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data), n1
            assert p1.grad is None, n1


def _reference_train(dataset, fold, cfg):
    """train() as it was before the optimizer owned the gradient buffer:
    the tape allocates every gradient, the optimizer gathers them."""
    model = build_model(dataset, cfg)
    records = dataset.fold_records(fold, held_out=False)
    opt = oracle.GatherRAdam(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    shuffle_rng = np.random.default_rng(cfg.seed + 1)
    trace = []

    def step(n):
        for _, p in opt.params:
            if p.grad is not None and n > 1:
                p.grad /= n
        opt.step()
        model.zero_grad()

    for _ in range(cfg.epochs):
        total, pending = 0.0, 0
        model.zero_grad()
        for idx in shuffle_rng.permutation(len(records)):
            loss = model.loss(records[idx])
            total += loss.item()
            loss.backward()
            pending += 1
            if pending == cfg.batch_size:
                step(pending)
                pending = 0
        if pending:
            step(pending)
        trace.append(total / max(1, len(records)))
    return model, trace


class TestEvaluate:
    def test_oracle_risk_model(self):
        spec = SynthSpec(n_patients=500, beta=2.0)
        ds = synth_generate(spec, seed=7)

        class OracleModel:
            def predict_risk(self, rec):
                return planted_factor_readout(rec, spec)

        rep = evaluate(OracleModel(), ds, fold=0)
        assert rep.c_index >= 0.80
        assert rep.p_value < 0.05

    def test_constant_risk_model(self):
        _, ds = _small_ds()

        class Flat:
            def predict_risk(self, rec):
                return 1.0

        rep = evaluate(Flat(), ds, fold=0)
        assert rep.c_index == 0.5  # every comparable pair tied at 1/2
        assert rep.p_value == 1.0
        assert rep.diagnostic  # single stratum noted

    def test_undefined_cindex_reported_with_diagnostic(self):
        _, ds = _small_ds(n=20)
        for r in ds.fold_records(0, held_out=True):
            r.censored = 1  # no comparable pairs among the held-out fold

        class Any:
            def predict_risk(self, rec):
                return rec.time_months

        rep = evaluate(Any(), ds, fold=0)
        assert rep.c_index is None
        assert "comparable" in rep.diagnostic

    def test_identical_strata_p_one(self):
        # risks that split the fold but identical outcomes in both strata
        _, ds = _small_ds(n=20)
        held = ds.fold_records(0, held_out=True)
        for r in held:
            r.time_months = 10.0
            r.censored = 0

        class Half:
            def __init__(self):
                self.i = 0

            def predict_risk(self, rec):
                self.i += 1
                return float(self.i % 2)

        rep = evaluate(Half(), ds, fold=0)
        assert rep.p_value == 1.0

    def test_thread_cap_env(self, monkeypatch):
        _, ds = _small_ds()
        cfg = _small_cfg(epochs=0)
        model, _ = train(ds, 0, cfg)
        rep1 = evaluate(model, ds, 0)
        monkeypatch.setenv("SURVMAMBA_THREADS", "2")
        rep2 = evaluate(model, ds, 0)
        assert np.array_equal(rep1.risks, rep2.risks)
        monkeypatch.setenv("SURVMAMBA_THREADS", "zero")
        with pytest.raises(ConfigError):
            evaluate(model, ds, 0)

    def test_one_worker_when_threads_unset(self, monkeypatch):
        _, ds = _small_ds()
        model, _ = train(ds, 0, _small_cfg(epochs=0))
        monkeypatch.delenv("SURVMAMBA_THREADS", raising=False)

        def no_pool(*a, **k):
            raise AssertionError("evaluate() started a thread pool")

        monkeypatch.setattr(training, "ThreadPoolExecutor", no_pool)
        assert training._thread_cap() == 1
        assert len(evaluate(model, ds, 0).risks) == len(ds.fold_records(0, held_out=True))

    def test_depth_two_stacks(self):
        _, ds = _small_ds()
        cfg = _small_cfg(depth=2, epochs=0)
        model, _ = train(ds, 0, cfg)
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        assert any(n.startswith("him.image.fine.s1.") for n in names)
        out = model.forward(ds.records[0])
        assert out.hazards.shape == (4,)

    def test_fused_features_share_dimension(self):
        _, ds = _small_ds()
        cfg = _small_cfg(epochs=0)
        model, _ = train(ds, 0, cfg)
        feats = model.fuse_features(ds.records[0])
        assert feats.fine.shape == feats.coarse.shape == feats.mixed.shape == (cfg.d_model,)

    def test_save_load_identical_risks(self, tmp_path):
        from survmamba.dataio import load_checkpoint, save_checkpoint

        _, ds = _small_ds()
        cfg = _small_cfg(epochs=1)
        model, _ = train(ds, 0, cfg)
        save_checkpoint(model, tmp_path / "m.smck")
        model2 = build_model(ds, cfg)
        load_checkpoint(model2, tmp_path / "m.smck")
        r1 = [model.predict_risk(r) for r in ds.fold_records(0, True)]
        r2 = [model2.predict_risk(r) for r in ds.fold_records(0, True)]
        assert r1 == r2


class TestComplexity:
    def test_single_linear_fixture(self):
        from survmamba.numerics import LinearLayer

        lin = LinearLayer(512, 256, rng=np.random.default_rng(0))
        assert lin.param_count() == 512 * 256 + 256 == 131328

    def test_param_count_matches_closed_form(self):
        for dims in ((6, 8, 2, 2), (4, 8, 4, 3), (8, 16, 8, 4)):
            d, e, n, w = dims
            spec = SynthSpec(n_patients=10, regions=2, patches_per_region=3,
                             processes=2, functions_per_process=2,
                             genes_per_function=3, feature_dim=5)
            ds = synth_generate(spec, seed=1)
            cfg = TrainConfig(d_model=d, e_expand=e, n_state=n, conv_width=w,
                              genomics_hidden=4, epochs=0, seed=0)
            model = build_model(ds, cfg)
            audit = _closed_form_params(d, e, n, w, d_raw=5, n_fns=4, genes=3,
                                        hidden=4, t_bins=4)
            assert report_complexity(model)["param_count"] == audit

    def test_scan_flops_linear_in_e(self):
        spec = SynthSpec(n_patients=10, regions=2, patches_per_region=3,
                         processes=2, functions_per_process=2,
                         genes_per_function=3, feature_dim=5)
        ds = synth_generate(spec, seed=1)
        m1 = build_model(ds, TrainConfig(d_model=6, e_expand=8, n_state=2,
                                         conv_width=2, genomics_hidden=4, epochs=0, seed=0))
        m2 = build_model(ds, TrainConfig(d_model=6, e_expand=16, n_state=2,
                                         conv_width=2, genomics_hidden=4, epochs=0, seed=0))
        s1 = report_complexity(m1)["breakdown"]["scan"]
        s2 = report_complexity(m2)["breakdown"]["scan"]
        assert s2 == 2 * s1


def _closed_form_params(d, e, n, w, d_raw, n_fns, genes, hidden, t_bins):
    """Independent audit of the parameter count, written as explicit
    per-block sums."""
    bimamba = (
        2 * d                     # norm gamma, beta
        + 2 * (d * e + e)         # x and z projections
        + 2 * (                   # two directions
            (e * w + e)           # conv kernel + bias
            + 2 * (e * n + n)     # B and C projections
            + e * e + e           # delta projection + bias
            + e * n               # A log
        )
        + (e * d + d)             # output projection
    )
    ifm = (
        2 * (
            2 * d                 # norm
            + (d * e + e)         # in-proj
            + (e * w + e)
            + 2 * (e * n + n)
            + e * e + e
            + e * n
        )
        + (d * e + e)             # shared z projection
        + (2 * e * d + d)         # output projection
    )
    encoder = (d_raw * d + d) + n_fns * (genes * hidden + hidden + hidden * d + d)
    head = d * t_bins + t_bins
    alpha = 1
    return 4 * bimamba + 2 * ifm + encoder + head + alpha
