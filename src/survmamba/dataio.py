"""On-disk formats and round-trip IO.

Manifest (JSON): {"patients": [{"id", "histology", "genomics",
"time_months", "censored"}], "grouping": path, "bins": optional edges};
paths are relative to the manifest's directory.

Feature-bag (text, .smb): header line "SMB1 <n_groups> <dim>", then per
group a line "<group_id> <n_tokens>" followed by n_tokens lines of dim
space-separated decimal floats. Token order inside a group is the scan
order contract (raster order for patches, catalog order for functions).
Floats are written with repr precision so a save/load round trip is
bit-identical, and must be finite. Every line, the last included, ends
in a newline, so a file cut inside its last number is still detected.
Genomics files hold one group ("expr") with a single token whose dim is
the gene count.

Checkpoint (binary, .smck): magic "SMCK", uint32 count, then per
parameter uint32 name length, UTF-8 name bytes, uint32 rank, rank uint64
dims, and the little-endian float64 payload, which must be finite.

A missing file, text that is not UTF-8, a file cut short, a malformed
count, a non-finite value or, in a manifest or grouping file, malformed
JSON, a missing key or a value of the wrong JSON type or range raises
DataError naming the file and the line (bags), byte offset (checkpoints)
or patient, process, function or key. Equal manifest edges are accepted:
small cohorts with a single observed death write them. A first edge
above, or a last edge below, some patient's time_months raises DataError
naming the manifest, that patient, the time and the edge; a checkpoint
that does not match the model's parameter names or shapes raises one
naming the checkpoint.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import PatientRecord, SurvivalDataset, finalize_dataset
from .errors import ConfigError, DataError
from .hierarchy import GroupingConfig, HierarchicalBag

BAG_MAGIC = "SMB1"
CKPT_MAGIC = b"SMCK"


def write_feature_bag(path, bag: HierarchicalBag):
    lines = [f"{BAG_MAGIC} {bag.n_groups} {bag.token_dim}"]
    for gid, toks in bag.groups:
        lines.append(f"{gid} {toks.shape[0]}")
        for row in toks:
            lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_text(path, what: str) -> str:
    """The UTF-8 text of a file; DataError when it is missing or not UTF-8."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{what} not found: {path}")
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: byte offset {exc.start} is not UTF-8 text") from None


def read_feature_bag(path, modality: str) -> HierarchicalBag:
    path = Path(path)
    text = read_text(path, "feature-bag file")
    lines = text.splitlines()
    if not text.endswith("\n"):
        raise DataError(f"{path}: truncated, line {max(len(lines), 1)} has no closing newline")

    def count(token: str, ln: int, what: str) -> int:
        try:
            n = int(token)
        except ValueError:
            n = -1
        if n < 0:
            raise DataError(f"{path}: line {ln + 1}: {what} {token!r} is not a non-negative integer")
        return n

    header = lines[0].split()  # lines is not empty: text ends in a newline
    if len(header) != 3 or header[0] != BAG_MAGIC:
        raise DataError(f"{path}: bad header {lines[0]!r}, expected '{BAG_MAGIC} <n_groups> <dim>'")
    n_groups, dim = count(header[1], 0, "group count"), count(header[2], 0, "token dim")
    if dim == 0:
        raise DataError(f"{path}: line 1: token dim is 0, tokens need at least one value")
    groups = []
    ln = 1
    for _ in range(n_groups):
        if ln == len(lines):
            raise DataError(f"{path}: truncated, line {ln + 1} should hold '<group_id> <n_tokens>'")
        fields = lines[ln].rsplit(" ", 1)
        if len(fields) != 2:
            raise DataError(f"{path}: line {ln + 1}: expected '<group_id> <n_tokens>', got {lines[ln]!r}")
        gid, n_tok = fields[0], count(fields[1], ln, f"group {fields[0]!r} token count")
        ln += 1
        if ln + n_tok > len(lines):
            raise DataError(f"{path}: truncated, line {len(lines) + 1} should hold "
                            f"row {len(lines) - ln} of group {gid!r}")
        rows = lines[ln : ln + n_tok]
        try:
            toks = np.array([row.split() for row in rows], dtype=np.float64).reshape(n_tok, dim)
        except ValueError:
            toks = None
        if toks is None or not np.isfinite(toks).all():
            raise DataError(_row_fault(path, rows, ln, gid, dim))
        ln += n_tok
        groups.append((gid, toks))
    if any(rest.strip() for rest in lines[ln:]):
        raise DataError(f"{path}: line {ln + 1}: unexpected content after the last of {n_groups} groups")
    return HierarchicalBag(modality=modality, groups=groups)


def _row_fault(path, rows, first: int, gid: str, dim: int) -> str:
    """Name the first row of a group that has the wrong number of values,
    an unparsable value or a non-finite one (rows[0] is at index first)."""
    for r, row in enumerate(rows):
        where = f"{path}: line {first + r + 1}: group {gid!r} row {r}"
        vals = row.split()
        if len(vals) != dim:
            return f"{where} has {len(vals)} values, expected {dim}"
        for v in vals:
            try:
                x = float(v)
            except ValueError:
                return f"{where}: could not convert {v!r} to a float"
            if not math.isfinite(x):
                return f"{where} has a non-finite value {v!r}"
    return f"{path}: line {first + 1}: group {gid!r} does not parse"


def write_grouping(path, grouping: GroupingConfig):
    Path(path).write_text(json.dumps(grouping.to_dict(), indent=1) + "\n")


def _read_json(path: Path, what: str, error=DataError):
    try:
        return json.loads(read_text(path, what))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{path}: malformed JSON: {exc}") from None


def read_config(cls, path):
    """An instance of the dataclass cls from a flat JSON object of field
    values; absent fields keep their defaults. ConfigError names the file."""
    doc = _read_json(Path(path), "config file", ConfigError)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object of config fields")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{path}: unknown config fields {unknown}")
    try:
        return cls(**doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _key(obj, key: str, where: str, kind=object, what: str = "", item: str = ""):
    """obj[key] from a parsed JSON object. DataError naming where (and the
    item) when it is absent or, for a given kind, not a `kind`: bools never
    are, and a list must not be empty."""
    if not isinstance(obj, dict) or key not in obj:
        raise DataError(f"{where}: missing key {key!r}{item}")
    val = obj[key]
    if kind is not object and (not isinstance(val, kind) or isinstance(val, bool) or (kind is list and not val)):
        raise DataError(f"{where}: {key} {val!r} is not {what}{item}")
    return val


def read_grouping(path) -> GroupingConfig:
    path = Path(path)
    doc = _read_json(path, "grouping config")

    def entries(key, noun, members, valid=None, what=""):
        """[(id, members)] of the doc's `key` list; DataError names the entry.
        GroupingConfig checks the gene indices."""
        out = []
        for i, entry in enumerate(_key(doc, key, str(path), list, "a non-empty list")):
            eid = _key(entry, "id", str(path), str, "a string", f" ({noun} #{i})")
            vals = _key(entry, members, str(path), list, "a non-empty list", f" ({noun} {eid!r})")
            if valid and not all(map(valid, vals)):
                raise DataError(f"{path}: {members} {vals!r} are not {what} ({noun} {eid!r})")
            out.append((eid, vals))
        return out

    functions = entries("functions", "function", "genes")
    processes = entries("processes", "process", "functions", lambda f: type(f) is str, "function ids")
    try:
        return GroupingConfig(processes=processes, functions=functions)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_dataset(dataset: SurvivalDataset, out_dir) -> Path:
    """Write manifest + grouping + per-patient bag files; returns the
    manifest path."""
    out_dir = Path(out_dir)
    (out_dir / "patients").mkdir(parents=True, exist_ok=True)
    write_grouping(out_dir / "grouping.json", dataset.grouping)
    patients = []
    for rec in dataset.records:
        hist_rel = f"patients/{rec.patient_id}.hist.smb"
        gen_rel = f"patients/{rec.patient_id}.gen.smb"
        write_feature_bag(out_dir / hist_rel, rec.histology)
        gen_bag = HierarchicalBag(modality="genomics", groups=[("expr", rec.genomics[None, :])])
        write_feature_bag(out_dir / gen_rel, gen_bag)
        patients.append(
            {
                "id": rec.patient_id,
                "histology": hist_rel,
                "genomics": gen_rel,
                "time_months": rec.time_months,
                "censored": rec.censored,
            }
        )
    manifest = {
        "patients": patients,
        "grouping": "grouping.json",
        "bins": [float(e) for e in dataset.bin_edges],
    }
    mpath = out_dir / "manifest.json"
    mpath.write_text(json.dumps(manifest, indent=1) + "\n")
    return mpath


def load_dataset(manifest_path, t_bins: int = 4) -> SurvivalDataset:
    """Parse a manifest, load every referenced file, validate shapes
    against the grouping config. Folds are recomputed from manifest
    order; bins come from the manifest when present."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    doc = _read_json(manifest_path, "manifest")
    grouping = read_grouping(base / _key(doc, "grouping", str(manifest_path), str, "a path"))
    n_genes_needed = grouping.n_genes

    records = []
    position = {}  # patient id -> its position in the manifest
    for i, p in enumerate(_key(doc, "patients", str(manifest_path), list, "a non-empty list")):
        pid = _key(p, "id", f"{manifest_path}: patient #{i}", str, "a string")
        if pid in position:
            raise DataError(f"{manifest_path}: patient id {pid!r} appears at positions "
                            f"#{position[pid]} and #{i}")
        position[pid] = i
        where = f"{manifest_path}: patient {pid}"
        time_months = _key(p, "time_months", where, (int, float), "a finite positive number")
        censored = _key(p, "censored", where)
        if not 0 < time_months < math.inf:
            raise DataError(f"{where}: time_months {time_months!r} is not a finite positive number")
        if censored not in (0, 1):
            raise DataError(f"{where}: censored {censored!r} is not 0 or 1")
        hist = read_feature_bag(base / _key(p, "histology", where, str, "a path"), "histology")
        if records and hist.token_dim != records[0].histology.token_dim:
            raise DataError(f"{where}: histology token dim {hist.token_dim} differs from "
                            f"patient {records[0].patient_id}'s {records[0].histology.token_dim}")
        gen_bag = read_feature_bag(base / _key(p, "genomics", where, str, "a path"), "genomics")
        if gen_bag.n_groups != 1 or gen_bag.groups[0][1].shape[0] != 1:
            raise DataError(f"patient {pid}: genomics file must hold one group with one token")
        expr = gen_bag.groups[0][1][0]
        if expr.shape[0] < n_genes_needed:
            raise DataError(
                f"patient {pid}: expression vector has {expr.shape[0]} genes, "
                f"grouping needs {n_genes_needed}"
            )
        records.append(
            PatientRecord(
                patient_id=pid,
                histology=hist,
                genomics=expr,
                time_months=float(time_months),
                censored=int(censored),
            )
        )
    bins = doc.get("bins")
    if bins is not None:
        try:
            edges = np.asarray(bins, dtype=np.float64)
        except (TypeError, ValueError):
            edges = np.zeros(0)
        if edges.ndim != 1 or edges.size < 2 or not (np.diff(edges) >= 0).all():
            raise DataError(f"{manifest_path}: bins {bins!r} are not a non-decreasing list of edges")
    try:
        return finalize_dataset(records, grouping, bin_edges=bins, t_bins=t_bins)
    except DataError as exc:
        raise DataError(f"{manifest_path}: {exc}") from None


# -- model checkpoints --------------------------------------------------------


def save_checkpoint(model, path):
    params = list(model.named_parameters())
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", len(params)))
        for name, p in params:
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", p.data.ndim))
            fh.write(struct.pack(f"<{p.data.ndim}Q", *p.data.shape))
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint_arrays(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"checkpoint not found: {path}")
    blob = path.read_bytes()
    if blob[:4] != CKPT_MAGIC:
        raise DataError(f"{path}: bad checkpoint magic {blob[:4]!r}")
    off = 4

    def take(n: int, what: str) -> int:
        """Offset of the next n bytes, which must lie inside the file."""
        nonlocal off
        if off + n > len(blob):
            raise DataError(f"{path}: truncated at byte offset {len(blob)}: {what} needs "
                            f"{n} bytes from byte offset {off}")
        off += n
        return off - n

    (count,) = struct.unpack_from("<I", blob, take(4, "parameter count"))
    out = {}
    for i in range(count):
        (nlen,) = struct.unpack_from("<I", blob, take(4, f"parameter #{i} name length"))
        at = take(nlen, f"parameter #{i} name")
        try:
            name = blob[at : at + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: parameter #{i} name at byte offset {at} is not UTF-8") from None
        if name in out:
            raise DataError(f"{path}: parameter {name} appears twice; its second copy's name is at byte offset {at}")
        (rank,) = struct.unpack_from("<I", blob, take(4, f"{name} rank"))
        dims = struct.unpack_from(f"<{rank}Q", blob, take(8 * rank, f"{name} dims"))
        size = math.prod(dims)
        at = take(8 * size, f"{name} values")
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=at).reshape(dims).astype(np.float64)
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: {name} has a non-finite value in the payload at byte offset {at}")
        out[name] = arr
    if off != len(blob):
        raise DataError(f"{path}: {len(blob) - off} unexpected bytes from byte offset {off} after the last parameter")
    return out


def load_checkpoint(model, path):
    arrays = load_checkpoint_arrays(path)
    own = dict(model.named_parameters())
    if set(arrays) != set(own):
        missing = sorted(set(own) - set(arrays))[:3]
        extra = sorted(set(arrays) - set(own))[:3]
        raise DataError(f"{path}: checkpoint/model mismatch; missing={missing} extra={extra}")
    for name, p in own.items():
        if arrays[name].shape != p.data.shape:
            raise DataError(f"{path}: checkpoint {name}: shape {arrays[name].shape} != model {p.data.shape}")
        p.data[...] = arrays[name]
