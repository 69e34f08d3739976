"""Optimizer behavior, training loop contracts, evaluation, and the
complexity reporter."""

import json
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from survmamba.dataio import read_config
from survmamba.errors import ConfigError, NonFiniteError
from survmamba.model import ModelConfig, report_complexity
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


class TestTrainConfig:
    def test_adds_only_optimizer_fields_to_model_config(self):
        own = {f.name for f in fields(TrainConfig)} - {f.name for f in fields(ModelConfig)}
        assert own == {"lr", "weight_decay", "batch_size", "epochs", "seed"}
        cfg = _small_cfg()
        assert isinstance(cfg, ModelConfig)
        assert build_model(_small_ds()[1], cfg).cfg is cfg

    @pytest.mark.parametrize("field", [{"e_expand": 0}, {"e_expand": -2}, {"d_model": 0}, {"epochs": -1}])
    def test_non_positive_size_rejected(self, field):
        with pytest.raises(ConfigError, match="positive"):
            _small_cfg(**field)

    def test_flat_json_loads(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"d_model": 6, "e_expand": 8, "lr": 1e-3, "seed": 4}))
        cfg = read_config(TrainConfig, path)
        assert (cfg.d_model, cfg.e_expand, cfg.lr, cfg.seed, cfg.n_state) == (6, 8, 1e-3, 4, 16)

    def test_unknown_field_names_file_and_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"d_model": 6, "pool": "max", "threads": 2}))
        with pytest.raises(ConfigError, match=r"cfg\.json: unknown config fields \['pool', 'threads'\]"):
            read_config(TrainConfig, path)

    @pytest.mark.parametrize("text", ['{"d_model": 6', "[1, 2]"])
    def test_malformed_json_names_file(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"cfg\.json"):
            read_config(TrainConfig, path)

    @pytest.mark.parametrize("field, message", [
        ({"disc_mode": "rk4"}, r"disc_mode 'rk4' is not one of \('euler', 'zoh'\)"),
        ({"d_model": 2.5}, "d_model 2.5 is not an integer"),
        ({"n_state": True}, "n_state True is not an integer"),
        ({"e_expand": "8"}, "e_expand '8' is not an integer"),
        ({"seed": None}, "seed None is not an integer"),
        ({"lr": "fast"}, "lr 'fast' is not a finite number"),
        ({"weight_decay": float("nan")}, "weight_decay nan is not a finite number"),
    ])
    def test_bad_field_rejected_at_construction(self, field, message):
        with pytest.raises(ConfigError, match=message):
            _small_cfg(**field)

    def test_bad_field_in_json_names_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"disc_mode": "rk4"}))
        with pytest.raises(ConfigError, match=r"cfg\.json: train config: disc_mode"):
            read_config(TrainConfig, path)


class TestModelConfig:
    """ModelConfig checks its own fields at construction, so a bad size or
    mode fails there, not inside the model or at its first scan."""

    @pytest.mark.parametrize("field, message", [
        ({"d_model": 0}, "^model config: all values must be positive$"),
        ({"conv_width": 0}, "^model config: all values must be positive$"),
        ({"disc_mode": "rk4"}, r"^model config: disc_mode 'rk4' is not one of \('euler', 'zoh'\)$"),
    ])
    def test_bad_field_rejected_at_construction(self, field, message):
        with pytest.raises(ConfigError, match=message):
            ModelConfig(**{"d_model": 8, "e_expand": 16, "n_state": 4, **field})


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

    @pytest.mark.parametrize("fold", [5, -1])
    def test_evaluate_checks_the_fold_range(self, fold):
        _, ds = _small_ds()
        model = build_model(ds, _small_cfg(epochs=0))
        with pytest.raises(ConfigError, match=f"^fold must be in 0..4, got {fold}$"):
            evaluate(model, ds, fold)

    def test_diverging_training_raises_without_numpy_warnings(self):
        """At lr 1e3 the parameters blow up within the first epochs; the
        loss check names the patient before numpy reports the overflow."""
        _, ds = _small_ds()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^non-finite loss for patient P\\d{4}$"):
                train(ds, 0, _small_cfg(lr=1e3, epochs=5))

    def test_single_held_out_record_named(self):
        # a one-record fold used to end in risk_stratify's bare ValueError
        _, ds = _small_ds(n=6)
        model = build_model(ds, _small_cfg(epochs=0))
        with pytest.raises(ConfigError, match="fold 1 has 1 held-out records; the median split needs 2"):
            evaluate(model, ds, 1)

    def test_bin_count_mismatch_raises(self):
        _, ds = _small_ds()
        with pytest.raises(ConfigError, match="bins"):
            build_model(ds, _small_cfg(t_bins=3))

    def test_batch_accumulation_mode_runs(self):
        _, ds = _small_ds()
        cfg = _small_cfg(batch_size=4, epochs=1)
        _, trace = train(ds, 0, cfg)
        assert len(trace) == 1 and np.isfinite(trace[0])

    @pytest.mark.parametrize("batch_size", [1, 5])
    def test_one_gradient_zero_fill_per_batch(self, monkeypatch, batch_size):
        # each batch: one zero-fill, then its backward passes, then one step
        _, ds = _small_ds()
        events = []

        def spy(owner, name):
            orig = getattr(owner, name)

            def wrapper(self):
                events.append(name)
                return orig(self)
            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in ((RAdam, "zero_grad"), (RAdam, "step"), (Tensor, "backward")):
            spy(owner, name)
        train(ds, 0, _small_cfg(batch_size=batch_size))  # 2 epochs over 24 in-fold records
        sizes = [batch_size] * (24 // batch_size) + ([24 % batch_size] if 24 % batch_size else [])
        expected = []
        for _ in range(2):
            for k in sizes:
                expected += ["zero_grad"] + ["backward"] * k + ["step"]
        assert events == expected

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
            def predict_risks(self, records):
                return [planted_factor_readout(rec, spec) for rec in records]

        rep = evaluate(OracleModel(), ds, fold=0)
        assert rep.c_index >= 0.80
        assert rep.p_value < 0.05

    def test_constant_risk_model(self):
        _, ds = _small_ds()

        class Flat:
            def predict_risks(self, records):
                return [1.0] * len(records)

        rep = evaluate(Flat(), ds, fold=0)
        assert rep.c_index == 0.5  # every comparable pair tied at 1/2
        assert rep.p_value == 1.0
        assert rep.diagnostic  # single stratum noted

    def test_undefined_cindex_reported_with_diagnostic(self):
        _, ds = _small_ds(n=20)
        for r in ds.fold_records(0, held_out=True):
            r.censored = 1  # no comparable pairs among the held-out fold

        class Any:
            def predict_risks(self, records):
                return [rec.time_months for rec in records]

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
            def predict_risks(self, records):
                return [float(i % 2) for i in range(1, len(records) + 1)]

        rep = evaluate(Half(), ds, fold=0)
        assert rep.p_value == 1.0

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

    def test_non_finite_risk_names_fold_and_patient(self):
        """evaluate prefixes the fold to the scorer's NonFiniteError, which
        names the first patient whose risk is not finite."""
        _, ds = _small_ds()
        second = ds.fold_records(1, held_out=True)[1].patient_id

        class OneNan:
            def predict_risks(self, records):
                raise NonFiniteError(f"non-finite risk nan for patient {second}")

        with pytest.raises(NonFiniteError, match=f"fold 1: non-finite risk nan for patient {second}$"):
            evaluate(OneNan(), ds, fold=1)

    def test_nan_head_weight_raises(self):
        _, ds = _small_ds()
        model, _ = train(ds, 0, _small_cfg(epochs=0))
        model.head.lin.weight.data[0, 0] = np.nan
        first = ds.fold_records(0, held_out=True)[0].patient_id
        with pytest.raises(NonFiniteError, match=f"fold 0: .* for patient {first}"):
            evaluate(model, ds, fold=0)

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

    @pytest.mark.parametrize("case", ["desk", "paper_zoh_depth2", "ragged_depth3"])
    def test_flops_pinned(self, case):
        """Integers taken from the reporter before its per-branch formula
        was shared between the BiMamba and IFM blocks."""
        from survmamba.hierarchy import GroupingConfig, default_catalog, make_grouping
        from survmamba.model import SurvMambaModel

        cfg, grouping, d_raw, bag, expect = {
            "desk": (ModelConfig(d_model=32, e_expand=64, n_state=8), make_grouping(8, 4, 8), 16, (4, 16),
                     (204709, 7198848, 242688, 4872960, 2082816, 737280, 288)),
            "paper_zoh_depth2": (ModelConfig(d_model=512, n_state=16, depth=2, disc_mode="zoh"),
                                 default_catalog(), 768, (4, 16),
                                 (52256901, 8041707040, 74086400, 7221747456, 745867520, 162529280, 4128)),
            "ragged_depth3": (ModelConfig(d_model=6, e_expand=10, n_state=3, conv_width=2, genomics_hidden=5,
                                          align_len=5, depth=3, t_bins=3),
                              GroupingConfig(processes=[("p0", ["f1", "f0"]), ("p1", ["f2"])],
                                             functions=[("f0", [0, 3]), ("f1", [1]), ("f2", [2, 4, 5])]),
                              7, (3, 5), (10167, 149267, 1683, 135516, 11990, 22200, 60)),
        }[case]
        rep = report_complexity(SurvMambaModel(cfg, grouping, d_raw, seed=0), *bag)
        got = (rep["param_count"], rep["flops_estimate"]) + tuple(
            rep["breakdown"][k] for k in ("encoders", "him", "ifm", "scan", "head"))
        assert got == expect


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
