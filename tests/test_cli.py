"""CLI subcommands, driven through main() with captured stdout."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from survmamba.cli import main, run
from survmamba.errors import ConfigError, DataError


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture(scope="module")
def tiny_dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = {
        "n_patients": 25, "regions": 2, "patches_per_region": 3,
        "processes": 2, "functions_per_process": 2, "genes_per_function": 2,
        "feature_dim": 4, "beta": 2.0, "noise": 0.1, "censoring_rate": 0.2,
    }
    (root / "spec.json").write_text(json.dumps(spec))
    code = main(["synth", "--spec", str(root / "spec.json"), "--seed", "3", "--out", str(root / "data")])
    assert code == 0
    return root


def test_synth_writes_layout(tiny_dataset_dir):
    data = tiny_dataset_dir / "data"
    assert (data / "manifest.json").exists()
    assert (data / "grouping.json").exists()
    assert (data / "patients" / "P0000.hist.smb").exists()
    manifest = json.loads((data / "manifest.json").read_text())
    assert len(manifest["patients"]) == 25
    assert "bins" in manifest


def test_train_then_eval(tiny_dataset_dir, capsys):
    root = tiny_dataset_dir
    cfg = {
        "d_model": 6, "e_expand": 8, "n_state": 2, "conv_width": 2,
        "genomics_hidden": 4, "align_len": 8, "epochs": 2, "seed": 1,
    }
    (root / "cfg.json").write_text(json.dumps(cfg))
    code, out = _run(capsys, [
        "train", "--data", str(root / "data" / "manifest.json"),
        "--fold", "0", "--config", str(root / "cfg.json"),
        "--out", str(root / "model.smck"),
    ])
    assert code == 0
    assert "epoch   0" in out and "epoch   1" in out
    assert (root / "model.smck").exists()

    code, out = _run(capsys, [
        "eval", "--data", str(root / "data" / "manifest.json"),
        "--fold", "0", "--ckpt", str(root / "model.smck"),
        "--config", str(root / "cfg.json"),
        "--km-out", str(root / "km.tsv"),
    ])
    assert code == 0
    assert "c-index" in out
    km = (root / "km.tsv").read_text()
    assert km.splitlines()[0] == "group\ttime\tsurvival\tat_risk\tevents"
    assert "# logrank chi2=" in km


def test_eval_prints_km_table_to_current_stdout(tiny_dataset_dir, capsys):
    root = tiny_dataset_dir
    (root / "cfg0.json").write_text(json.dumps({
        "d_model": 6, "e_expand": 8, "n_state": 2, "conv_width": 2,
        "genomics_hidden": 4, "align_len": 8, "epochs": 0, "seed": 1,
    }))
    manifest = str(root / "data" / "manifest.json")
    assert main(["train", "--data", manifest, "--fold", "1", "--config", str(root / "cfg0.json"),
                 "--out", str(root / "model0.smck")]) == 0
    capsys.readouterr()
    code, out = _run(capsys, [
        "eval", "--data", manifest, "--fold", "1", "--ckpt", str(root / "model0.smck"),
        "--config", str(root / "cfg0.json"),
    ])
    assert code == 0
    lines = out.splitlines()
    assert "group\ttime\tsurvival\tat_risk\tevents" in lines
    assert lines[-1].startswith("# logrank chi2=")


def test_gradcheck_numerics(capsys):
    code, out = _run(capsys, ["gradcheck", "--module", "numerics"])
    assert code == 0
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_scan_bench_lines(capsys):
    code, out = _run(capsys, [
        "scan-bench", "--len", "64,128", "--channels", "2", "--state", "2", "--reps", "2",
    ])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT")]
    assert [ln.split(" seconds=")[0] for ln in lines] == ["RESULT len=64", "RESULT len=128"]
    assert all(float(ln.split("seconds=")[1]) > 0 for ln in lines)


def test_scan_bench_has_no_mode_option(capsys):
    with pytest.raises(SystemExit):
        main(["scan-bench", "--help"])
    assert "--mode" not in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [
    ("--len", "0"), ("--len", "abc"), ("--len", "-5"), ("--len", "64,0"),
    ("--reps", "0"), ("--channels", "0"), ("--state", "0"),
])
def test_scan_bench_bad_argument_is_one_error_line(capsys, flag, value):
    """The command parses --len and leaves every range check to bench_scan,
    whose error names the argument."""
    code = run(["scan-bench", "--len", "64", "--reps", "1", flag, value])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == 2
    assert captured.out == ""
    arg = "lengths" if flag == "--len" else flag[2:]
    message = "scan-bench: --len " if value == "abc" else f"bench_scan: {arg} "
    assert len(err) == 1 and err[0].startswith("error: " + message), err


def test_km_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(0)
    n = 40
    risks = rng.normal(size=n)
    times = rng.exponential(12.0, size=n) * np.exp(-risks) + 0.05
    events = rng.integers(0, 2, size=n)
    (tmp_path / "risks.txt").write_text("\n".join(repr(float(r)) for r in risks))
    (tmp_path / "outcomes.txt").write_text(
        "\n".join(f"{float(t)!r} {int(e)}" for t, e in zip(times, events))
    )
    code, out = _run(capsys, [
        "km", "--risks", str(tmp_path / "risks.txt"),
        "--outcomes", str(tmp_path / "outcomes.txt"),
    ])
    assert code == 0
    assert out.splitlines()[0] == "group\ttime\tsurvival\tat_risk\tevents"
    assert "low\t" in out and "high\t" in out
    assert "# logrank chi2=" in out


def test_km_length_mismatch(tmp_path, capsys):
    (tmp_path / "r.txt").write_text("1.0\n2.0\n")
    (tmp_path / "o.txt").write_text("1.0 1\n")
    code = run(["km", "--risks", str(tmp_path / "r.txt"), "--outcomes", str(tmp_path / "o.txt")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1
    assert re.fullmatch(r"error: \S*r\.txt has 2 risks but \S*o\.txt has 1 outcomes", err[0])


def test_single_stratum_printed_once_by_eval_and_km(tiny_dataset_dir, tmp_path, capsys):
    """A fresh model scores every patient alike, so the median split leaves
    one 'low' stratum: eval prints it once, with no 'high' rows, and km
    prints the same table and summary line for the same risks."""
    root = tiny_dataset_dir
    (tmp_path / "cfg.json").write_text(json.dumps({
        "d_model": 6, "e_expand": 8, "n_state": 2, "conv_width": 2,
        "genomics_hidden": 4, "align_len": 8, "epochs": 0, "seed": 1,
    }))
    manifest = str(root / "data" / "manifest.json")
    assert main(["train", "--data", manifest, "--fold", "2", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "fresh.smck")]) == 0
    capsys.readouterr()
    code, out = _run(capsys, ["eval", "--data", manifest, "--fold", "2", "--ckpt", str(tmp_path / "fresh.smck"),
                              "--config", str(tmp_path / "cfg.json")])
    assert code == 0
    lines = out.splitlines()
    table = lines[lines.index("group\ttime\tsurvival\tat_risk\tevents"):]
    assert not [ln for ln in table if ln.startswith("high\t")]
    assert len(table) > 2 and all(ln.startswith("low\t") for ln in table[1:-1])
    assert table[-1] == "# logrank chi2=0.000000 p=1 degenerate"

    from survmamba.dataio import load_dataset

    held_out = load_dataset(manifest).fold_records(2, held_out=True)
    argv = _km_files(tmp_path, "0.5\n" * len(held_out),
                     "".join(f"{r.time_months!r} {1 - r.censored}\n" for r in held_out))
    code, km_out = _run(capsys, argv)
    assert code == 0
    assert km_out.splitlines() == table


def _km_files(tmp_path, risks, outcomes):
    (tmp_path / "r.txt").write_text(risks)
    (tmp_path / "o.txt").write_text(outcomes)
    return ["km", "--risks", str(tmp_path / "r.txt"), "--outcomes", str(tmp_path / "o.txt")]


def test_km_outcome_field_count(tmp_path):
    argv = _km_files(tmp_path, "1.0\n2.0\n", "3.0 1\n4.0\n")
    with pytest.raises(DataError, match=r"o\.txt: line 2: expected '<time> <event>', got 1 fields"):
        main(argv)


def test_km_risk_field_count(tmp_path):
    argv = _km_files(tmp_path, "1.0 2.0\n", "3.0 1\n")
    with pytest.raises(DataError, match=r"r\.txt: line 1: expected one risk, got 2 fields"):
        main(argv)


def test_km_unparsable_risk(tmp_path):
    argv = _km_files(tmp_path, "1.0\n# comment\nx\n", "3.0 1\n4.0 0\n")
    with pytest.raises(DataError, match=r"r\.txt: line 3: 'x' is not a finite number"):
        main(argv)


def test_km_non_finite_time(tmp_path):
    argv = _km_files(tmp_path, "1.0\n2.0\n", "3.0 1\nnan 0\n")
    with pytest.raises(DataError, match=r"o\.txt: line 2: 'nan' is not a finite number"):
        main(argv)


@pytest.mark.parametrize("time", ["0", "-2.5"])
def test_km_non_positive_time(tmp_path, time):
    argv = _km_files(tmp_path, "1.0\n2.0\n", f"{time} 1\n4.0 0\n")
    with pytest.raises(DataError, match=r"o\.txt: line 1: time must be positive"):
        main(argv)


@pytest.mark.parametrize("event", ["2", "0.5"])
def test_km_event_not_binary(tmp_path, event):
    argv = _km_files(tmp_path, "1.0\n2.0\n", f"3.0 1\n\n4.0 {event}\n")
    with pytest.raises(DataError, match=r"o\.txt: line 3: event must be 0 or 1"):
        main(argv)


@pytest.mark.parametrize("text, message", [
    ('{"n_patients": 5', r"spec\.json: malformed JSON"),
    ('{"n_patients": 5, "pool": 2}', r"spec\.json: unknown config fields \['pool'\]"),
    ("[5]", r"spec\.json: expected a JSON object"),
    ('{"regions": "4"}', r"spec\.json: synth spec: regions '4' is not an integer"),
    ('{"noise": null}', r"spec\.json: synth spec: noise None is not a finite number"),
    ('{"censoring_rate": 1.0}', r"spec\.json: synth spec: censoring rate 1\.0 outside \[0, 1\)"),
])
def test_synth_spec_errors_are_typed(tmp_path, text, message):
    (tmp_path / "spec.json").write_text(text)
    with pytest.raises(ConfigError, match=message):
        main(["synth", "--spec", str(tmp_path / "spec.json"), "--seed", "0", "--out", str(tmp_path / "d")])


def test_km_single_patient_named(tmp_path):
    argv = _km_files(tmp_path, "1.0\n", "3.0 1\n")
    with pytest.raises(DataError, match=r"r\.txt: the median split needs at least 2 patients, got 1"):
        main(argv)


def test_console_entry_reports_missing_input_in_one_line(tmp_path):
    """`python -m survmamba.cli` with a missing input file prints one
    `error:` line on stderr, no traceback, and exits 2."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "survmamba.cli", "km", "--risks", "nope.txt",
                           "--outcomes", "nope.txt"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: input file not found: nope.txt"]


@pytest.mark.parametrize("t_bins", ["1", "0", "-1"])
def test_synth_rejects_fewer_than_two_bins(tmp_path, capsys, t_bins):
    code = run(["synth", "--seed", "0", "--out", str(tmp_path / "d"), "--t-bins", t_bins])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert err == [f"error: assign_bins: t_bins must be at least 2, the hazard head's minimum, got {t_bins}"]
    assert not (tmp_path / "d").exists()


def test_console_entry_reports_config_error(tmp_path, capsys):
    (tmp_path / "spec.json").write_text('{"regions": "4"}')
    code = run(["synth", "--spec", str(tmp_path / "spec.json"), "--seed", "0", "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and "synth spec" in err[0]


def test_eval_non_finite_risk_is_one_error_line(tiny_dataset_dir, tmp_path):
    """A finite checkpoint whose histology projection overflows scores
    non-finite risks: `eval` prints one `error:` line naming the fold and
    a patient, no numpy warning, and exits 2."""
    from survmamba.dataio import load_dataset, save_checkpoint
    from survmamba.training import TrainConfig, build_model

    cfg = {"d_model": 6, "e_expand": 8, "n_state": 2, "conv_width": 2, "genomics_hidden": 4,
           "align_len": 8, "epochs": 0, "seed": 1}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    manifest = str(tiny_dataset_dir / "data" / "manifest.json")
    model = build_model(load_dataset(manifest), TrainConfig(**cfg))
    model.enc.histology.proj.weight.data[:] = 1e308
    save_checkpoint(model, tmp_path / "huge.smck")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "survmamba.cli", "eval", "--data", manifest, "--fold", "0",
                           "--ckpt", str(tmp_path / "huge.smck"), "--config", str(tmp_path / "cfg.json")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert re.fullmatch(r"error: evaluate: fold 0: non-finite risk nan for patient P\d{4}", line), line


_TINY_CFG = {"d_model": 6, "e_expand": 8, "n_state": 2, "conv_width": 2, "genomics_hidden": 4,
             "align_len": 8, "epochs": 0, "seed": 1}


def _run_without_work(monkeypatch, manifest, ckpt, flag, out):
    """(exit status, the work started) of `train --out out` or `eval
    --km-out out`, with loading, training and scoring stubbed out."""
    import survmamba.cli as cli

    work = []
    for name in ("load_dataset", "train", "evaluate"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: work.append(_name))
    if flag == "--out":
        argv = ["train", "--data", manifest, "--fold", "0", "--out", str(out)]
    else:
        argv = ["eval", "--data", manifest, "--fold", "0", "--ckpt", str(ckpt), "--km-out", str(out)]
    return run(argv), work


@pytest.mark.parametrize("flag", ["--out", "--km-out"])
def test_an_output_in_a_missing_directory_is_refused_before_any_work(tiny_dataset_dir, tmp_path, capsys,
                                                                     monkeypatch, flag):
    """`train --out` and `eval --km-out` in a directory that does not exist
    print one `error:` line naming the flag and the path and exit 2, before
    loading data: train does not train, eval does not score."""
    manifest = str(tiny_dataset_dir / "data" / "manifest.json")
    missing = tmp_path / "nope" / "out.file"
    code, work = _run_without_work(monkeypatch, manifest, tmp_path / "m.smck", flag, missing)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and work == []
    assert captured.err.splitlines() == [
        f"error: {flag}: directory {str(missing.parent)!r} of {str(missing)!r} does not exist"]
    assert not missing.parent.exists()


@pytest.mark.parametrize("flag", ["--out", "--km-out"])
def test_an_output_naming_a_directory_is_refused_before_any_work(tiny_dataset_dir, tmp_path, capsys,
                                                                  monkeypatch, flag):
    """An output path that is an existing directory is refused the same
    way, before any data loads, where it used to fail only after the work:
    train after every epoch, eval after printing its c-index."""
    manifest = str(tiny_dataset_dir / "data" / "manifest.json")
    code, work = _run_without_work(monkeypatch, manifest, tmp_path / "m.smck", flag, tmp_path)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and work == []
    assert captured.err.splitlines() == [f"error: {flag}: {str(tmp_path)!r} is a directory, not a file path"]


def test_a_failed_write_is_one_error_line(tiny_dataset_dir, tmp_path, capsys):
    """An output path that passes the check but cannot be written, a link
    into a missing directory: `train` and `eval` report the OSError as one
    `error:` line and exit 2, after the work."""
    (tmp_path / "cfg.json").write_text(json.dumps(_TINY_CFG))
    manifest = str(tiny_dataset_dir / "data" / "manifest.json")
    common = ["--data", manifest, "--fold", "0", "--config", str(tmp_path / "cfg.json")]
    dangling = tmp_path / "link"
    dangling.symlink_to(tmp_path / "nope" / "out.file")
    assert run(["train", *common, "--out", str(dangling)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(dangling) in err[0], err
    assert run(["train", *common, "--out", str(tmp_path / "m.smck")]) == 0
    capsys.readouterr()
    assert run(["eval", *common, "--ckpt", str(tmp_path / "m.smck"), "--km-out", str(dangling)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert "c-index" in captured.out
    assert len(err) == 1 and err[0].startswith("error: ") and str(dangling) in err[0], err
