"""Synthetic generator, bin assignment, folds, and file round trips."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survmamba.data import PatientRecord, assign_bins, finalize_dataset, make_folds
from survmamba.dataio import (
    load_checkpoint,
    load_checkpoint_arrays,
    load_dataset,
    read_feature_bag,
    save_checkpoint,
    save_dataset,
    write_feature_bag,
)
from survmamba.errors import ConfigError, DataError
from survmamba.hierarchy import HierarchicalBag, make_grouping
from survmamba.model import ModelConfig, SurvMambaModel
from survmamba.numerics import Tensor
from survmamba.ssm import DISCRETIZE_MODES
from survmamba.survstats import concordance_index
from survmamba.synth import SynthSpec, planted_factor_readout, synth_generate


class TestSynth:
    def test_deterministic(self):
        spec = SynthSpec(n_patients=30)
        d1 = synth_generate(spec, seed=3)
        d2 = synth_generate(spec, seed=3)
        for r1, r2 in zip(d1.records, d2.records):
            assert r1.time_months == r2.time_months
            assert r1.censored == r2.censored
            assert np.array_equal(r1.genomics, r2.genomics)
            for (g1, t1), (g2, t2) in zip(r1.histology.groups, r2.histology.groups):
                assert g1 == g2
                assert np.array_equal(t1, t2)

    def test_no_signal_gives_chance_cindex(self):
        spec = SynthSpec(n_patients=500, beta=0.0)
        ds, u = synth_generate(spec, seed=11, return_latents=True)
        c = concordance_index(u, [r.outcome for r in ds.records])
        assert abs(c - 0.5) < 0.05

    def test_planted_factor_recovers_survival_order(self):
        spec = SynthSpec(n_patients=500, beta=2.0, noise=0.1)
        ds, u = synth_generate(spec, seed=7, return_latents=True)
        c = concordance_index(u, [r.outcome for r in ds.records])
        assert c >= 0.80

    def test_readout_estimates_latent(self):
        spec = SynthSpec(n_patients=50)
        ds, u = synth_generate(spec, seed=5, return_latents=True)
        est = [planted_factor_readout(r, spec) for r in ds.records]
        assert np.corrcoef(u, est)[0, 1] > 0.99

    def test_shapes_and_invariants(self):
        spec = SynthSpec(n_patients=12, regions=3, patches_per_region=5,
                         processes=2, functions_per_process=3, genes_per_function=2,
                         feature_dim=6)
        ds = synth_generate(spec, seed=0)
        assert len(ds) == 12
        rec = ds.records[0]
        assert rec.histology.n_groups == 3
        assert rec.histology.groups[0][1].shape == (5, 6)
        assert rec.genomics.shape == (12,)
        assert all(r.time_months > 0 for r in ds.records)
        assert all(0 <= r.t_bin < 4 for r in ds.records)

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            synth_generate(SynthSpec(censoring_rate=1.0), seed=0)
        with pytest.raises(ConfigError):
            synth_generate(SynthSpec(regions=0), seed=0)


class TestBins:
    def test_quantile_edges_fixture(self):
        times = np.arange(1.0, 101.0)
        edges, bins = assign_bins(times, np.ones(100, dtype=int), 4)
        assert edges[0] == 0.0
        assert np.isinf(edges[-1])
        assert np.max(np.abs(edges[1:4] - [25.75, 50.5, 75.25])) < 1e-9

    def test_every_bin_in_range(self):
        rng = np.random.default_rng(1)
        times = rng.exponential(20, size=80) + 0.01
        events = rng.integers(0, 2, size=80)
        events[:4] = 1
        edges, bins = assign_bins(times, events, 4)
        assert bins.min() >= 0 and bins.max() < 4

    def test_edge_time_goes_to_lower_bin(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        edges, bins = assign_bins(times, np.ones(4, dtype=int), 2)
        # median of 1..4 = 2.5; a time exactly on the edge joins the bin below
        edges2, bins2 = assign_bins(np.array([1.0, 2.5, 2.5, 4.0]), np.ones(4, dtype=int), 2)
        assert bins2[1] == 0 and bins2[2] == 0

    def test_too_few_uncensored(self):
        with pytest.raises(ConfigError, match="uncensored"):
            assign_bins([1.0, 2.0, 3.0], [1, 0, 0], 2)

    @pytest.mark.parametrize("t_bins", [1, 0, -1])
    def test_fewer_than_two_bins_rejected(self, t_bins):
        with pytest.raises(ConfigError, match=f"t_bins must be at least 2, the hazard head's minimum, got {t_bins}$"):
            assign_bins(np.arange(1.0, 11.0), np.ones(10, dtype=int), t_bins)

    def test_tied_times_that_repeat_an_edge_rejected(self):
        # quantile edges would be [0, 1, 1, 1.75, inf]: bin 1 is unreachable
        with pytest.raises(ConfigError, match="tied uncensored times at 1 "):
            assign_bins([1.0, 1.0, 1.0, 1.0, 2.0, 3.0], [1] * 6, 4)


class TestFolds:
    def test_partition_balanced(self):
        for n in (5, 7, 23, 100):
            folds = make_folds(n)
            counts = np.bincount(folds, minlength=5)
            assert counts.sum() == n
            assert counts.max() - counts.min() <= 1
            if n >= 5:
                assert counts.min() >= 1


class TestFeatureBagIO:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        bag = HierarchicalBag("histology", [("r0", rng.normal(size=(3, 4))),
                                            ("r1", rng.normal(size=(2, 4)))])
        path = tmp_path / "bag.smb"
        write_feature_bag(path, bag)
        back = read_feature_bag(path, "histology")
        assert back.n_groups == 2
        for (g1, t1), (g2, t2) in zip(bag.groups, back.groups):
            assert g1 == g2
            assert np.array_equal(np.asarray(t1), t2)

    def test_header_format(self, tmp_path):
        bag = HierarchicalBag("histology", [("r0", np.ones((2, 3)))])
        path = tmp_path / "bag.smb"
        write_feature_bag(path, bag)
        assert path.read_text().splitlines()[0] == "SMB1 1 3"

    def test_missing_file_named(self):
        with pytest.raises(DataError, match="nope.smb"):
            read_feature_bag("nope.smb", "histology")

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.smb"
        p.write_text("WRONG 1 2\n")
        with pytest.raises(DataError, match="header"):
            read_feature_bag(p, "histology")

    def test_zero_token_dim_rejected(self, tmp_path):
        # a (1, 0) bag used to load and then fail model set-up with ZeroDivisionError
        p = tmp_path / "z.smb"
        p.write_text("SMB1 1 0\ng 1\n\n")
        with pytest.raises(DataError, match=r"z\.smb: line 1: token dim is 0"):
            read_feature_bag(p, "histology")


    @staticmethod
    def _written(tmp_path):
        rng = np.random.default_rng(5)
        bag = HierarchicalBag("histology", [("r0", rng.normal(size=(2, 3))),
                                            ("r 1", rng.normal(size=(3, 3)))])
        path = tmp_path / "bag.smb"
        write_feature_bag(path, bag)
        return path, path.read_text()

    def test_cut_at_every_line_and_byte_names_file_and_line(self, tmp_path):
        path, text = self._written(tmp_path)
        lines = text.splitlines(keepends=True)
        cuts = ["".join(lines[:k]) for k in range(len(lines))]
        cuts += [text[:n] for n in range(0, len(text), 3)] + [text[:-1]]
        for cut in cuts:
            path.write_text(cut)
            with pytest.raises(DataError, match=r"bag\.smb: .*line \d+"):
                read_feature_bag(path, "histology")

    @pytest.mark.parametrize("header, group_line", [
        ("SMB1 2 3", "r0 two"), ("SMB1 2 3", "r0 2.0"), ("SMB1 2 3", "r0 -1"),
        ("SMB1 2 3", "r0"), ("SMB1 2 3", "r0 "), ("SMB1 x 3", "r0 2"), ("SMB1 2 3.5", "r0 2"),
    ])
    def test_malformed_counts_name_line(self, tmp_path, header, group_line):
        path, text = self._written(tmp_path)
        lines = text.splitlines()
        lines[0], lines[1] = header, group_line
        path.write_text("\n".join(lines) + "\n")
        line_no = 1 if header != "SMB1 2 3" else 2
        with pytest.raises(DataError, match=rf"bag\.smb: line {line_no}: "):
            read_feature_bag(path, "histology")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999", "0x1p3", "1.0 2.0", ""])
    def test_bad_feature_row_names_line(self, tmp_path, bad):
        path, text = self._written(tmp_path)
        lines = text.splitlines()
        row = lines[6].split()  # group "r 1", row 1
        row[2] = bad
        lines[6] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"bag\.smb: line 7: group 'r 1' row 1"):
            read_feature_bag(path, "histology")

    def test_content_after_last_group_rejected(self, tmp_path):
        path, text = self._written(tmp_path)
        path.write_text(text + "r2 0\n")
        with pytest.raises(DataError, match=r"line 9: unexpected content"):
            read_feature_bag(path, "histology")


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        ds = synth_generate(SynthSpec(n_patients=8, regions=2, patches_per_region=3,
                                      processes=2, functions_per_process=2,
                                      genes_per_function=2, feature_dim=4), seed=9)
        manifest = save_dataset(ds, tmp_path / "data")
        back = load_dataset(manifest)
        assert len(back) == len(ds)
        assert np.array_equal(back.bin_edges, ds.bin_edges)
        assert np.array_equal(back.folds, ds.folds)
        for r1, r2 in zip(ds.records, back.records):
            assert r1.patient_id == r2.patient_id
            assert r1.time_months == r2.time_months
            assert r1.censored == r2.censored
            assert r1.t_bin == r2.t_bin
            assert np.array_equal(r1.genomics, r2.genomics)
            for (g1, t1), (g2, t2) in zip(r1.histology.groups, r2.histology.groups):
                assert g1 == g2
                assert np.array_equal(np.asarray(t1), t2)

    def test_missing_referenced_file_named(self, tmp_path):
        ds = synth_generate(SynthSpec(n_patients=6, regions=1, patches_per_region=2,
                                      processes=1, functions_per_process=2,
                                      genes_per_function=2, feature_dim=3), seed=1)
        manifest = save_dataset(ds, tmp_path / "d")
        (tmp_path / "d" / "patients" / "P0003.hist.smb").unlink()
        with pytest.raises(DataError, match="P0003"):
            load_dataset(manifest)

    def test_hand_written_manifest(self, tmp_path):
        # 1 patient, one region of two 2-dim tokens, 2 genes
        (tmp_path / "grouping.json").write_text(
            '{"processes": [{"id": "p0", "functions": ["f0"]}],'
            ' "functions": [{"id": "f0", "genes": [0, 1]}]}'
        )
        (tmp_path / "pat.hist.smb").write_text(
            "SMB1 1 2\nr0 2\n1.0 2.0\n3.0 4.0\n"
        )
        (tmp_path / "pat.gen.smb").write_text("SMB1 1 2\nexpr 1\n0.5 -0.5\n")
        (tmp_path / "manifest.json").write_text(
            '{"patients": [{"id": "X1", "histology": "pat.hist.smb",'
            ' "genomics": "pat.gen.smb", "time_months": 12.5, "censored": 0}],'
            ' "grouping": "grouping.json", "bins": [0.0, 10.0, 1e300]}'
        )
        ds = load_dataset(tmp_path / "manifest.json")
        rec = ds.records[0]
        assert rec.histology.groups[0][1].shape == (2, 2)
        assert np.array_equal(rec.histology.groups[0][1], [[1.0, 2.0], [3.0, 4.0]])
        assert rec.t_bin == 1

    def test_unknown_function_id_named(self, tmp_path):
        ds = synth_generate(SynthSpec(n_patients=6, regions=1, patches_per_region=2,
                                      processes=1, functions_per_process=2,
                                      genes_per_function=2, feature_dim=3), seed=1)
        manifest = save_dataset(ds, tmp_path / "d")
        grouping = json.loads((tmp_path / "d" / "grouping.json").read_text())
        grouping["processes"][0]["functions"].append("F9999")
        (tmp_path / "d" / "grouping.json").write_text(json.dumps(grouping))
        with pytest.raises(DataError, match="F9999"):
            load_dataset(manifest)

    def _manifest(self, tmp_path):
        ds = synth_generate(SynthSpec(n_patients=6, regions=1, patches_per_region=2,
                                      processes=1, functions_per_process=2,
                                      genes_per_function=2, feature_dim=3), seed=1)
        path = save_dataset(ds, tmp_path / "d")
        return path, json.loads(path.read_text())

    def test_cut_manifest_names_file(self, tmp_path):
        path, _ = self._manifest(tmp_path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(DataError, match=r"manifest\.json: malformed JSON"):
            load_dataset(path)

    def test_cut_grouping_names_file(self, tmp_path):
        path, _ = self._manifest(tmp_path)
        grouping = tmp_path / "d" / "grouping.json"
        grouping.write_text(grouping.read_text()[:30])
        with pytest.raises(DataError, match=r"grouping\.json: malformed JSON"):
            load_dataset(path)

    def test_missing_grouping_key_named(self, tmp_path):
        path, doc = self._manifest(tmp_path)
        del doc["grouping"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"manifest\.json: missing key 'grouping'"):
            load_dataset(path)

    def test_missing_patient_key_names_patient(self, tmp_path):
        path, doc = self._manifest(tmp_path)
        del doc["patients"][2]["time_months"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"manifest\.json: patient P0002: missing key 'time_months'"):
            load_dataset(path)

    def test_missing_grouping_file_key_named(self, tmp_path):
        path, _ = self._manifest(tmp_path)
        grouping = tmp_path / "d" / "grouping.json"
        doc = json.loads(grouping.read_text())
        del doc["functions"][0]["genes"]
        grouping.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"grouping\.json: missing key 'genes'"):
            load_dataset(path)

    @pytest.mark.parametrize("flag", ["x", 2, -1, 0.5, None])
    def test_censored_not_zero_or_one_names_patient(self, tmp_path, flag):
        path, doc = self._manifest(tmp_path)
        doc["patients"][4]["censored"] = flag
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"patient P0004: censored .* is not 0 or 1"):
            load_dataset(path)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), -0.5, 0.0, "12"])
    def test_bad_time_names_patient(self, tmp_path, time):
        path, doc = self._manifest(tmp_path)
        doc["patients"][1]["time_months"] = time
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"patient P0001: time_months .* is not a finite positive"):
            load_dataset(path)

    def test_duplicate_patient_id_names_both_positions(self, tmp_path):
        path, doc = self._manifest(tmp_path)
        doc["patients"][4]["id"] = "P0002"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"manifest\.json: patient id 'P0002' appears at positions #2 and #4"):
            load_dataset(path)

    def test_all_ids_equal_rejected(self, tmp_path):
        path, doc = self._manifest(tmp_path)
        for p in doc["patients"]:
            p["id"] = "P0000"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"patient id 'P0000' appears at positions #0 and #1"):
            load_dataset(path)

    @pytest.mark.parametrize("bins", [[0.0, 9.0, 5.0, 1e300], [0.0, float("nan"), 1e300],
                                      [3.0], ["a", "b"], 7.0])
    def test_decreasing_or_malformed_bins_rejected(self, tmp_path, bins):
        path, doc = self._manifest(tmp_path)
        doc["bins"] = bins
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"manifest\.json: bins .* non-decreasing list"):
            load_dataset(path)

    def test_equal_manifest_edges_load(self, tmp_path):
        # a cohort with one observed death writes equal quantile edges
        path, doc = self._manifest(tmp_path)
        doc["bins"] = [0.0, 5.0, 5.0, 5.0, float("inf")]
        path.write_text(json.dumps(doc))
        assert load_dataset(path).n_bins == 4

    def test_last_edge_below_a_time_names_manifest_patient_and_time(self, tmp_path):
        """Edges that end below some patient's time used to load, give that
        patient t_bin == n_bins and fail only in training, in survival_nll,
        naming neither the manifest nor the patient."""
        ds = synth_generate(SynthSpec(n_patients=12, regions=1, patches_per_region=2, processes=1,
                                      functions_per_process=2, genes_per_function=2, feature_dim=3), seed=1)
        path = save_dataset(ds, tmp_path / "d")
        doc = json.loads(path.read_text())
        t = sorted(r.time_months for r in ds.records)
        doc["bins"] = [0.0, t[3], t[6], t[8], t[9]]
        path.write_text(json.dumps(doc))
        late = next(r for r in ds.records if r.time_months > t[9])  # the first in manifest order
        message = f"manifest.json: patient {late.patient_id}: time_months {late.time_months!r} lies past " \
                  f"the last bin edge {t[9]!r}"
        with pytest.raises(DataError, match=re.escape(message) + "$"):
            load_dataset(path)
        with pytest.raises(DataError, match=rf"^patient {late.patient_id}: time_months"):
            finalize_dataset(ds.records, ds.grouping, bin_edges=doc["bins"])
        doc["bins"][-1] = t[-1]  # a last edge on the latest time keeps it in the last bin
        path.write_text(json.dumps(doc))
        assert max(r.t_bin for r in load_dataset(path).records) == 3

    def test_first_edge_above_a_time_names_manifest_patient_and_time(self, tmp_path):
        """Edges that start above some patient's time used to load and put
        that patient in bin 0, although bins are (edge_k, edge_k+1]."""
        ds = synth_generate(SynthSpec(n_patients=12, regions=1, patches_per_region=2, processes=1,
                                      functions_per_process=2, genes_per_function=2, feature_dim=3), seed=1)
        path = save_dataset(ds, tmp_path / "d")
        doc = json.loads(path.read_text())
        t = sorted(r.time_months for r in ds.records)
        doc["bins"] = [t[2], t[3], t[6], t[8], float("inf")]
        path.write_text(json.dumps(doc))
        early = next(r for r in ds.records if r.time_months < t[2])  # the first in manifest order
        message = f"manifest.json: patient {early.patient_id}: time_months {early.time_months!r} lies before " \
                  f"the first bin edge {t[2]!r}"
        with pytest.raises(DataError, match=re.escape(message) + "$"):
            load_dataset(path)
        with pytest.raises(DataError, match=rf"^patient {early.patient_id}: time_months"):
            finalize_dataset(ds.records, ds.grouping, bin_edges=doc["bins"])
        doc["bins"][0] = t[0]  # a first edge on the earliest time keeps it in bin 0
        path.write_text(json.dumps(doc))
        assert min(r.t_bin for r in load_dataset(path).records) == 0

    def test_expression_too_short_names_patient(self, tmp_path):
        ds = synth_generate(SynthSpec(n_patients=6, regions=1, patches_per_region=2,
                                      processes=1, functions_per_process=2,
                                      genes_per_function=2, feature_dim=3), seed=1)
        manifest = save_dataset(ds, tmp_path / "d")
        gen = tmp_path / "d" / "patients" / "P0002.gen.smb"
        gen.write_text("SMB1 1 2\nexpr 1\n0.1 0.2\n")
        with pytest.raises(DataError, match="P0002"):
            load_dataset(manifest)

    @pytest.mark.parametrize("edit, message", [
        (lambda g: [], r"grouping\.json: missing key 'functions'"),
        (lambda g: {**g, "processes": 5}, r"grouping\.json: processes 5 is not a non-empty list"),
        (lambda g: {**g, "functions": []}, r"grouping\.json: functions \[\] is not a non-empty list"),
        (lambda g: {**g, "functions": [{"id": "F0000", "genes": []}] + g["functions"][1:]},
         r"grouping\.json: genes \[\] is not a non-empty list \(function 'F0000'\)"),
        (lambda g: {**g, "functions": [{"id": "F0000", "genes": ["a"]}] + g["functions"][1:]},
         r"grouping\.json: genes \['a'\] are not non-negative integers \(function 'F0000'\)"),
        (lambda g: {**g, "functions": [{"id": "F0000", "genes": [-1]}] + g["functions"][1:]},
         r"grouping\.json: genes \[-1\] are not non-negative integers \(function 'F0000'\)"),
        (lambda g: {**g, "functions": [{"id": "F0000", "genes": [True]}] + g["functions"][1:]},
         r"are not non-negative integers \(function 'F0000'\)"),
        (lambda g: {**g, "processes": [{"id": "P000", "functions": "f"}]},
         r"grouping\.json: functions 'f' is not a non-empty list \(process 'P000'\)"),
        (lambda g: {**g, "processes": [{"id": "P000", "functions": [["F0000"]]}]},
         r"grouping\.json: functions \[\['F0000'\]\] are not function ids \(process 'P000'\)"),
        (lambda g: {**g, "processes": [{"id": 7, "functions": ["F0000"]}]},
         r"grouping\.json: id 7 is not a string \(process #0\)"),
    ])
    def test_grouping_of_wrong_json_type_named(self, tmp_path, edit, message):
        path, _ = self._manifest(tmp_path)
        grouping = tmp_path / "d" / "grouping.json"
        grouping.write_text(json.dumps(edit(json.loads(grouping.read_text()))))
        with pytest.raises(DataError, match=message):
            load_dataset(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: {**m, "patients": 5}, r"manifest\.json: patients 5 is not a non-empty list"),
        (lambda m: {**m, "patients": []}, r"manifest\.json: patients \[\] is not a non-empty list"),
        (lambda m: {**m, "grouping": 5}, r"manifest\.json: grouping 5 is not a path"),
        (lambda m: {**m, "grouping": ""}, r"grouping config not found: "),
        (lambda m: {**m, "patients": [{**m["patients"][0], "histology": 5}]},
         r"manifest\.json: patient P0000: histology 5 is not a path"),
        (lambda m: {**m, "patients": [{**m["patients"][0], "genomics": None}]},
         r"manifest\.json: patient P0000: genomics None is not a path"),
        (lambda m: {**m, "patients": [{**m["patients"][0], "id": ["P"]}]},
         r"manifest\.json: patient #0: id \['P'\] is not a string"),
        (lambda m: {**m, "patients": [{**m["patients"][0], "time_months": True}]},
         r"manifest\.json: patient P0000: time_months True is not a finite positive number"),
        (lambda m: {**m, "patients": [{**m["patients"][0], "histology": "patients"}]},
         r"feature-bag file not found: .*patients"),
    ])
    def test_manifest_of_wrong_json_type_named(self, tmp_path, edit, message):
        path, doc = self._manifest(tmp_path)
        path.write_text(json.dumps(edit(doc)))
        with pytest.raises(DataError, match=message):
            load_dataset(path)

    def test_histology_dims_must_agree(self, tmp_path):
        path, doc = self._manifest(tmp_path)
        (tmp_path / "d" / "patients" / "P0003.hist.smb").write_text("SMB1 1 2\nr0 1\n0.5 0.25\n")
        with pytest.raises(DataError, match=r"patient P0003: histology token dim 2 differs from patient P0000's 3"):
            load_dataset(path)

    def test_non_utf8_file_named(self, tmp_path):
        path, _ = self._manifest(tmp_path)
        (tmp_path / "d" / "patients" / "P0001.gen.smb").write_bytes(b"SMB1 1 2\n\xff\n")
        with pytest.raises(DataError, match=r"P0001\.gen\.smb: byte offset 9 is not UTF-8 text"):
            load_dataset(path)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        from survmamba.gradsuite import toy_pipeline_model

        model, ds = toy_pipeline_model()
        path = tmp_path / "model.smck"
        save_checkpoint(model, path)
        arrays = load_checkpoint_arrays(path)
        for name, p in model.named_parameters():
            assert np.array_equal(arrays[name], p.data)

        model2, _ = toy_pipeline_model()
        for _, p in model2.named_parameters():
            p.data += 1.0
        load_checkpoint(model2, path)
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), model2.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)
        r1 = model.predict_risk(ds.records[0])
        r2 = model2.predict_risk(ds.records[0])
        assert r1 == r2

    @settings(max_examples=12)
    @given(sizes=st.tuples(*[st.integers(1, 4)] * 4), t_bins=st.integers(2, 4), depth=st.integers(1, 2),
           mode=st.sampled_from(DISCRETIZE_MODES), seed=st.integers(0, 2**16))
    def test_round_trip_over_random_configs(self, sizes, t_bins, depth, mode, seed):
        """A perturbed model of a random config, saved and loaded into one
        built from another seed: every parameter, and predict_risks over
        ragged patients, bit for bit."""
        d, e, n, w = sizes
        grouping = make_grouping(2, 2, 2)
        cfg = ModelConfig(d_model=d, e_expand=e, n_state=n, conv_width=w, t_bins=t_bins, genomics_hidden=3,
                          align_len=6, disc_mode=mode, depth=depth)
        rng = np.random.default_rng(seed)
        model = SurvMambaModel(cfg, grouping, 3, seed=seed)
        for p in model.parameters():
            p.data += rng.normal(scale=0.3, size=p.shape)
        records = []
        for i in range(3):
            bag = HierarchicalBag("histology", [(f"r{j}", rng.normal(size=(int(k), 3)))
                                                for j, k in enumerate(rng.integers(1, 6, size=int(rng.integers(1, 4))))])
            records.append(PatientRecord(f"P{i}", bag, rng.normal(size=grouping.n_genes), 1.0 + i, i % 2))
        loaded = SurvMambaModel(cfg, grouping, 3, seed=seed + 1)
        with tempfile.TemporaryDirectory() as tmp:
            save_checkpoint(model, Path(tmp) / "m.smck")
            load_checkpoint(loaded, Path(tmp) / "m.smck")
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), loaded.named_parameters(), strict=True):
            assert n1 == n2 and np.array_equal(p1.data, p2.data), n1
        assert np.array_equal(model.predict_risks(records), loaded.predict_risks(records))

    def test_magic_bytes(self, tmp_path):
        from survmamba.gradsuite import toy_pipeline_model

        model, _ = toy_pipeline_model()
        path = tmp_path / "m.smck"
        save_checkpoint(model, path)
        assert path.read_bytes()[:4] == b"SMCK"

    def test_name_or_shape_mismatch_names_the_checkpoint(self, tmp_path):
        from survmamba.gradsuite import toy_pipeline_model

        model, _ = toy_pipeline_model()
        path = tmp_path / "m.smck"
        save_checkpoint(model, path)
        params = dict(model.named_parameters())
        first = next(iter(params))
        a_log = next(n for n in params if n.endswith("a_log"))
        e, n = params[a_log].shape

        class Edited:
            def __init__(self, edit):
                self.edit = edit

            def named_parameters(self):
                return [self.edit(name, Tensor(p.data)) for name, p in params.items()]

        save_checkpoint(Edited(lambda name, p: ("renamed" if name == first else name, p)), tmp_path / "r.smck")
        message = f"r.smck: checkpoint/model mismatch; missing=['{first}'] extra=['renamed']"
        with pytest.raises(DataError, match=re.escape(message) + "$"):
            load_checkpoint(model, tmp_path / "r.smck")
        save_checkpoint(Edited(lambda name, p: (name, Tensor(p.data[:, :1]) if name == a_log else p)),
                        tmp_path / "s.smck")
        message = f"s.smck: checkpoint {a_log}: shape ({e}, 1) != model ({e}, {n})"
        with pytest.raises(DataError, match=re.escape(message) + "$"):
            load_checkpoint(model, tmp_path / "s.smck")

    def test_mismatch_detected(self, tmp_path):
        from survmamba.gradsuite import toy_pipeline_model

        model, _ = toy_pipeline_model()
        path = tmp_path / "m.smck"
        save_checkpoint(model, path)
        bad = path.with_suffix(".bad")
        bad.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(model, bad)

    @staticmethod
    def _written(tmp_path):
        class Params:
            def named_parameters(self):
                return [("w", Tensor(np.arange(6.0).reshape(2, 3))),
                        ("b", Tensor(np.array([0.5, -1.5]))),
                        ("scale", Tensor(np.array(2.0)))]

        path = tmp_path / "m.smck"
        save_checkpoint(Params(), path)
        return path, path.read_bytes()

    def test_cut_at_every_byte_names_file_and_offset(self, tmp_path):
        path, blob = self._written(tmp_path)
        assert load_checkpoint_arrays(path)["scale"].shape == ()
        for n in range(4, len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(DataError, match=rf"m\.smck: truncated at byte offset {n}"):
                load_checkpoint_arrays(path)

    def test_nonfinite_value_names_offset(self, tmp_path):
        path, blob = self._written(tmp_path)
        at = blob.index(np.array([-1.5]).astype("<f8").tobytes())
        for bad in (np.nan, np.inf):
            path.write_bytes(blob[:at] + np.array([bad]).astype("<f8").tobytes() + blob[at + 8:])
            with pytest.raises(DataError, match=rf"m\.smck: b has a non-finite value .* byte offset {at - 8}"):
                load_checkpoint_arrays(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, blob = self._written(tmp_path)
        path.write_bytes(blob + b"\0")
        with pytest.raises(DataError, match=rf"unexpected bytes from byte offset {len(blob)}"):
            load_checkpoint_arrays(path)

    def test_repeated_name_names_parameter_and_offset(self, tmp_path):
        """A name written twice used to load as its last copy, and
        load_checkpoint's name comparison still passed."""
        class Params:
            def __init__(self, *values):
                self.values = values

            def named_parameters(self):
                return [("w", Tensor(np.array(v))) for v in self.values]

        path = tmp_path / "m.smck"
        save_checkpoint(Params([1.0, 2.0], [3.0, 4.0]), path)
        second = 4 + 4 + (4 + 1 + 4 + 8 + 16) + 4  # magic, count, the first entry, the name length
        message = rf"m\.smck: parameter w appears twice; its second copy's name is at byte offset {second}$"
        with pytest.raises(DataError, match=message):
            load_checkpoint_arrays(path)
        with pytest.raises(DataError, match=message):
            load_checkpoint(Params([0.0, 0.0]), path)
