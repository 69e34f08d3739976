"""Seeded fuzzing of every file reader: feature bags (.smb), checkpoints
(.smck), manifests, grouping catalogs and the km risk/outcome files.
Whatever the input, a reader either returns or raises DataError or
ConfigError; any other exception is a fault.

Runs are derandomized with bounded example counts, so the suite stays
deterministic and quick.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from survmamba.cli import main
from survmamba.dataio import load_checkpoint_arrays, load_dataset, read_feature_bag, save_dataset
from survmamba.errors import ConfigError, DataError
from survmamba.synth import SynthSpec, synth_generate

TYPED = (DataError, ConfigError)


def fuzz(n):
    # derandomize, deadline and database come from the profile in conftest.py
    return settings(max_examples=n, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """A valid six-patient dataset directory and its parsed documents."""
    root = tmp_path_factory.mktemp("fuzz")
    ds = synth_generate(SynthSpec(n_patients=6, regions=2, patches_per_region=2, processes=2,
                                  functions_per_process=2, genes_per_function=2, feature_dim=3), seed=1)
    manifest = save_dataset(ds, root / "d")
    return {
        "root": root / "d",
        "manifest": json.loads(manifest.read_text()),
        "grouping": json.loads((root / "d" / "grouping.json").read_text()),
        "bag": (root / "d" / "patients" / "P0000.hist.smb").read_bytes(),
    }


def _reads_typed(fn, *args):
    try:
        fn(*args)
    except TYPED:
        pass


def _mutated(blob: bytes, edits) -> bytes:
    """Apply (position, kind, byte) edits: 0 replaces, 1 inserts, 2 deletes,
    3 cuts the blob at the position."""
    out = bytearray(blob)
    for pos, kind, byte in edits:
        at = pos % (len(out) + 1)
        if kind == 0 and at < len(out):
            out[at] = byte
        elif kind == 1:
            out.insert(at, byte)
        elif kind == 2 and at < len(out):
            del out[at]
        elif kind == 3:
            del out[at:]
    return bytes(out)


EDITS = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 3), st.integers(0, 255)), max_size=6)
# bytes that matter to the bag grammar, weighted toward structure
BAG_BYTES = st.sampled_from(list(b"0123456789 \n.-+eE") + list(b"SMB1naif") + [0xFF, 0x0C, 0x0B])
BAG_EDITS = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 3), BAG_BYTES), max_size=6)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**20) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _write(root: Path, name: str, data) -> Path:
    path = root / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return path


@fuzz(120)
@given(edits=BAG_EDITS)
def test_feature_bag_mutations(cohort, edits):
    with tempfile.TemporaryDirectory() as tmp:
        _reads_typed(read_feature_bag, _write(Path(tmp), "x.smb", _mutated(cohort["bag"], edits)), "histology")


@fuzz(60)
@given(text=st.text(alphabet="SMB1 0123456789.-e\nxnaif", max_size=60))
def test_feature_bag_from_scratch(text):
    with tempfile.TemporaryDirectory() as tmp:
        _reads_typed(read_feature_bag, _write(Path(tmp), "x.smb", text), "histology")


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    from survmamba.dataio import save_checkpoint

    class Params:
        def named_parameters(self):
            rng = np.random.default_rng(0)
            from survmamba.numerics import Tensor
            return [("a.w", Tensor(rng.normal(size=(2, 3)))), ("b", Tensor(rng.normal(size=4)))]

    path = tmp_path_factory.mktemp("ckpt") / "m.smck"
    save_checkpoint(Params(), path)
    return path.read_bytes()


@fuzz(120)
@given(edits=EDITS)
def test_checkpoint_mutations(checkpoint, edits):
    with tempfile.TemporaryDirectory() as tmp:
        _reads_typed(load_checkpoint_arrays, _write(Path(tmp), "m.smck", _mutated(checkpoint, edits)))


def _replace_at(doc, path, value):
    """doc with the value at the JSON path (a list of keys/indices taken
    modulo what is there) replaced; an empty path replaces the document."""
    if not path:
        return value
    if isinstance(doc, dict) and doc:
        key = sorted(doc)[path[0] % len(doc)]
        return {**doc, key: _replace_at(doc[key], path[1:], value)}
    if isinstance(doc, list) and doc:
        i = path[0] % len(doc)
        return doc[:i] + [_replace_at(doc[i], path[1:], value)] + doc[i + 1:]
    return value


PATHS = st.lists(st.integers(0, 50), max_size=4)


def _load_with(cohort, manifest=None, grouping=None):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "patients").symlink_to(cohort["root"] / "patients")
        _write(root, "grouping.json", json.dumps(cohort["grouping"] if grouping is None else grouping))
        path = _write(root, "manifest.json", json.dumps(cohort["manifest"] if manifest is None else manifest))
        _reads_typed(load_dataset, path)


@fuzz(100)
@given(path=PATHS, value=JSON)
def test_manifest_values(cohort, path, value):
    _load_with(cohort, manifest=_replace_at(cohort["manifest"], path, value))


@fuzz(100)
@given(path=PATHS, value=JSON)
def test_grouping_values(cohort, path, value):
    _load_with(cohort, grouping=_replace_at(cohort["grouping"], path, value))


@fuzz(40)
@given(edits=EDITS)
def test_manifest_text_mutations(cohort, edits):
    text = json.dumps(cohort["manifest"]).encode()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "patients").symlink_to(cohort["root"] / "patients")
        _write(root, "grouping.json", json.dumps(cohort["grouping"]))
        _reads_typed(load_dataset, _write(root, "manifest.json", _mutated(text, edits)))


KM_LINES = st.lists(st.lists(st.sampled_from(["1", "0", "2.5", "-1", "nan", "inf", "x", "#", "1e400", "0.0"]),
                             max_size=3).map(" ".join), max_size=5).map(lambda ls: "\n".join(ls))


@fuzz(80)
@given(risks=KM_LINES, outcomes=KM_LINES)
def test_km_files(risks, outcomes):
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        r = _write(Path(tmp), "r.txt", risks)
        o = _write(Path(tmp), "o.txt", outcomes)
        _reads_typed(main, ["km", "--risks", str(r), "--outcomes", str(o)])
