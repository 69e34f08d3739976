"""Stage-by-stage scoring of patient groups (`SurvMambaModel.predict_risks`):
it matches per-patient scoring, keeps every joined block call within the
row budget, holds memory that does not grow with the fold, keeps one
patient's overflow to that patient, reuses the Runs of sizes it has
seen and names a patient whose bag does not fit the model."""

import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import survmamba.model as sm_model
import survmamba.numerics as sm_numerics
from survmamba.blocks import BiMambaBlock, IFMBlock
from survmamba.data import PatientRecord
from survmamba.errors import DataError, NonFiniteError
from survmamba.hierarchy import HierarchicalBag, default_catalog
from survmamba.model import ModelConfig, SurvMambaModel
from survmamba.synth import SynthSpec, synth_generate
from survmamba.training import TrainConfig, build_model, evaluate, train

import _oracles as oracle

CATALOG = default_catalog(1)
D_RAW = 3
DESK = dict(d_model=32, e_expand=64, n_state=8)


def _perturbed(model, seed, scale):
    """Zero-initialized output projections make a fresh block an identity
    and a fresh fusion block zero; noise on every parameter makes each
    stage count."""
    rng = np.random.default_rng(seed)
    for _, p in model.named_parameters():
        p.data += scale * rng.normal(size=p.data.shape)
    return model


_TINY = {}


def _tiny(mode, depth):
    if (mode, depth) not in _TINY:
        cfg = ModelConfig(d_model=4, e_expand=8, n_state=2, conv_width=3, genomics_hidden=2, align_len=24,
                          disc_mode=mode, depth=depth)
        _TINY[mode, depth] = _perturbed(SurvMambaModel(cfg, CATALOG, D_RAW, seed=1), 2, 0.2)
    return _TINY[mode, depth]


def _record(i, patches, rng):
    groups = [(f"r{j}", rng.normal(size=(k, D_RAW))) for j, k in enumerate(patches)]
    return PatientRecord(f"P{i:04d}", HierarchicalBag("histology", groups), rng.normal(size=CATALOG.n_genes),
                         1.0 + i, i % 2)


def _desk(n):
    """A desk cohort (4 x 16 patches, 8 processes x 4 functions) and a
    perturbed desk-width model."""
    ds = synth_generate(SynthSpec(n_patients=n), seed=4)
    return ds, _perturbed(build_model(ds, TrainConfig(epochs=0, **DESK)), 5, 0.05)


@pytest.mark.parametrize("mode, depth", [("euler", 1), ("euler", 2), ("zoh", 1), ("zoh", 2)])
@settings(max_examples=8)
@given(bags=st.lists(st.lists(st.integers(1, 48), min_size=1, max_size=12), min_size=1, max_size=15),
       seed=st.integers(0, 2**16), edge=st.integers(0, 14), slack=st.integers(-1, 1))
def test_group_risks_match_per_patient_scoring(mode, depth, bags, seed, edge, slack):
    model = _tiny(mode, depth)
    rng = np.random.default_rng(seed)
    records = [_record(i, patches, rng) for i, patches in enumerate(bags)]
    want = np.asarray([oracle.per_patient_risk(model, r) for r in records])
    rows = sum(sum(patches) for patches in bags[: edge % len(bags) + 1]) + slack  # the first patients' image rows
    with mock.patch.object(sm_model, "JOIN_BYTES", max(1, rows) * 8 * model.cfg.resolved_e()):
        got = model.predict_risks(records)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _spy_block_calls(monkeypatch):
    calls = []  # (block, rows)
    for cls in (BiMambaBlock, IFMBlock):
        def spy(self, tokens, *args, _call=cls.__call__, **kwargs):
            calls.append((self, tokens.shape[0]))
            return _call(self, tokens, *args, **kwargs)
        monkeypatch.setattr(cls, "__call__", spy)
    return calls


def test_joined_block_calls_keep_to_the_budget(monkeypatch):
    ds, model = _desk(12)
    # one patient's rows per block: 64 patches, 4 regions, 32 functions,
    # 8 processes; fused at min(64, 32) and min(4, 8)
    single = {model.him.image.fine.blocks[0]: 64, model.him.image.coarse.blocks[0]: 4,
              model.him.genomics.fine.blocks[0]: 32, model.him.genomics.coarse.blocks[0]: 8,
              model.ifm.fine: 32, model.ifm.coarse: 4}
    cap = 48
    monkeypatch.setattr(sm_model, "JOIN_BYTES", cap * 8 * model.cfg.resolved_e())
    calls = _spy_block_calls(monkeypatch)
    model.predict_risks(ds.records)
    # every patient's stage input is the same shape, so a call over k
    # patients has k times one patient's rows
    assert all(rows <= cap or rows == single[blk] for blk, rows in calls)
    assert any(rows > cap for _, rows in calls)  # a patient over the budget alone
    assert any(rows > single[blk] for blk, rows in calls)  # patients joined
    # the coarse budget slices the 12 patients (8 coarse rows each) in 2
    # slices of 6, and each coarse block makes one call per slice
    coarse = [model.him.image.coarse.blocks[0], model.him.genomics.coarse.blocks[0], model.ifm.coarse]
    assert [[b for b, _ in calls].count(blk) for blk in coarse] == [2, 2, 2]
    assert model.predict_risks([]).shape == (0,)


def test_a_desk_fold_makes_fewer_block_calls_than_patients(monkeypatch):
    ds, model = _desk(60)
    calls = _spy_block_calls(monkeypatch)
    rep = evaluate(model, ds, 0)
    assert len(rep.risks) == 12
    assert 0 < len(calls) < 12


def test_scoring_memory_does_not_grow_with_the_fold():
    ds, model = _desk(48)
    cap = 128  # rows: a slice of 16 patients at the coarse level, 2 at the image fine level

    def peak(records):
        with mock.patch.object(sm_model, "JOIN_BYTES", cap * 8 * model.cfg.resolved_e()):
            model.predict_risks(records)  # warm the Runs cache
            tracemalloc.start()
            try:
                model.predict_risks(records)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    assert peak(ds.records) <= 1.5 * peak(ds.records[:12])


def _joined_risks(model, records):
    """Each record's risk from one joined stage-by-stage pass over them all,
    a non-finite risk kept: what `predict_risks` scores for a group that
    fits one slice, before it checks the risks."""
    with sm_numerics.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        return np.array([model.head(f.mixed).risk.item() for f in model._fused(records)])


def test_one_overflowing_patient_spoils_only_its_own_risk():
    ds, model = _desk(60)
    held = ds.fold_records(2, held_out=True)
    want = model.predict_risks(held)
    assert np.array_equal(_joined_risks(model, held), want)  # the fold fits one slice
    bad = 5
    for _, tokens in held[bad].histology.groups:
        tokens[...] = 1e308  # the histology projection itself overflows
    got = _joined_risks(model, held)
    keep = np.arange(len(held)) != bad
    assert np.isnan(got[bad])
    assert np.max(np.abs(got[keep] - want[keep])) <= 1e-12 * np.max(np.abs(want))
    with pytest.raises(NonFiniteError, match=f"^non-finite risk nan for patient {held[bad].patient_id}$"):
        model.predict_risks(held)
    with pytest.raises(NonFiniteError, match=f"fold 2: non-finite risk nan for patient {held[bad].patient_id}$"):
        evaluate(model, ds, 2)


def test_an_overflowing_patient_raises_without_numpy_warnings():
    """Outside `evaluate` as inside it, `predict_risk` and `predict_risks`
    name an overflowing patient in a NonFiniteError, and numpy reports no
    overflow first."""
    model = _tiny("euler", 1)
    rng = np.random.default_rng(9)
    records = [_record(i, [3, 5], rng) for i in range(3)]
    for _, tokens in records[1].histology.groups:
        tokens[...] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"^non-finite risk \S+ for patient P0001$"):
            model.predict_risk(records[1])
        with pytest.raises(NonFiniteError, match=r"^non-finite risk \S+ for patient P0001$"):
            model.predict_risks(records)


def test_an_overflowing_feature_fails_loudly():
    """Patches of 1e300 overflow only the layer norms' variance: the
    patient's risk and loss come out NaN rather than normalised to an
    ordinary-looking value, and the rest of the fold keeps its bits."""
    ds = synth_generate(SynthSpec(n_patients=60), seed=0)
    model = build_model(ds, TrainConfig(epochs=0, **DESK))
    held = ds.fold_records(2, held_out=True)
    want = model.predict_risks(held)
    assert np.array_equal(_joined_risks(model, held), want)
    bad = 3
    assert held[bad].patient_id == "P0017"
    for _, tokens in held[bad].histology.groups:
        tokens[...] = 1e300
    got = _joined_risks(model, held)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="fold 2: non-finite risk nan for patient P0017$"):
            evaluate(model, ds, 2)
        with pytest.raises(NonFiniteError, match="non-finite loss for patient P0017$"):
            train(ds, 0, TrainConfig(d_model=8, e_expand=16, n_state=4, epochs=1))
    assert np.isnan(got[bad])
    assert np.array_equal(np.delete(got, bad), np.delete(want, bad))


def test_a_second_patient_step_builds_no_runs(monkeypatch):
    """Every Runs a patient-step uses past the encoders' construction comes
    from `Runs.cached`, the bag's group sizes included, so repeating the
    step builds none."""
    ds, model = _desk(12)
    rec = ds.records[0]
    model.loss(rec).backward()
    built = []
    init = sm_numerics.Runs.__init__

    def spy(self, sizes):
        built.append(list(sizes))
        init(self, sizes)

    monkeypatch.setattr(sm_numerics.Runs, "__init__", spy)
    model.loss(rec).backward()
    assert built == []


def test_predict_risk_of_an_all_nan_expression_raises():
    ds, model = _desk(12)
    rec = dataclasses.replace(ds.records[4], genomics=np.full_like(ds.records[4].genomics, np.nan))
    with pytest.raises(NonFiniteError, match=f"^non-finite risk nan for patient {rec.patient_id}$"):
        model.predict_risk(rec)


def test_a_bag_of_the_wrong_token_dim_names_patient_and_dims():
    ds, model = _desk(12)
    bad = dataclasses.replace(ds.records[3], histology=HierarchicalBag("histology", [("r0", np.zeros((3, 17)))]))
    message = f"^patient {bad.patient_id}: histology tokens have dim 17, the model expects {model.d_raw}$"
    with pytest.raises(DataError, match=message):
        model.loss(bad)
    with pytest.raises(DataError, match=message):
        model.predict_risks(ds.records[:3] + [bad])


def test_a_short_expression_vector_names_patient_and_genes_needed():
    """An in-memory record one gene short used to fail inside the genomics
    encoder, naming a function and a gene index but neither the patient
    nor the length the catalog reads."""
    model = _tiny("euler", 1)
    rng = np.random.default_rng(9)
    records = [_record(i, [3, 2], rng) for i in range(3)]
    short = dataclasses.replace(records[1], genomics=records[1].genomics[:-1])
    message = (rf"^patient {short.patient_id}: expression vector has {CATALOG.n_genes - 1} genes, "
               rf"the catalog needs {CATALOG.n_genes} \(its largest gene index \+ 1\)$")
    with pytest.raises(DataError, match=message):
        model.predict_risks([records[0], short, records[2]])
    with pytest.raises(DataError, match=message):
        model.predict_risk(short)
