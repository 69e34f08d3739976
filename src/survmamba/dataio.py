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

A file cut short, a malformed count or a non-finite value raises
DataError naming the file and the line (bags) or byte offset
(checkpoints) where reading stopped.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .data import PatientRecord, SurvivalDataset, finalize_dataset
from .errors import DataError
from .hierarchy import GroupingConfig, HierarchicalBag

BAG_MAGIC = "SMB1"
CKPT_MAGIC = b"SMCK"


def write_feature_bag(path, bag: HierarchicalBag):
    lines = [f"{BAG_MAGIC} {bag.n_groups} {bag.token_dim}"]
    for gid, toks in bag.groups:
        toks = np.asarray(toks, dtype=np.float64)
        lines.append(f"{gid} {toks.shape[0]}")
        for row in toks:
            lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_feature_bag(path, modality: str) -> HierarchicalBag:
    path = Path(path)
    if not path.exists():
        raise DataError(f"feature-bag file not found: {path}")
    text = path.read_text()
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


def read_grouping(path) -> GroupingConfig:
    path = Path(path)
    if not path.exists():
        raise DataError(f"grouping config not found: {path}")
    return GroupingConfig.from_dict(json.loads(path.read_text()))


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
    if not manifest_path.exists():
        raise DataError(f"manifest not found: {manifest_path}")
    base = manifest_path.parent
    doc = json.loads(manifest_path.read_text())
    grouping = read_grouping(base / doc["grouping"])
    n_genes_needed = grouping.n_genes

    records = []
    for p in doc["patients"]:
        pid = p["id"]
        hist = read_feature_bag(base / p["histology"], "histology")
        gen_bag = read_feature_bag(base / p["genomics"], "genomics")
        if gen_bag.n_groups != 1 or np.asarray(gen_bag.groups[0][1]).shape[0] != 1:
            raise DataError(f"patient {pid}: genomics file must hold one group with one token")
        expr = np.asarray(gen_bag.groups[0][1])[0]
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
                time_months=float(p["time_months"]),
                censored=int(p["censored"]),
            )
        )
    bins = doc.get("bins")
    return finalize_dataset(records, grouping, bin_edges=bins, t_bins=t_bins)


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
    if not path.exists():
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
        raise DataError(f"checkpoint/model mismatch; missing={missing} extra={extra}")
    for name, p in own.items():
        if arrays[name].shape != p.data.shape:
            raise DataError(f"checkpoint {name}: shape {arrays[name].shape} != model {p.data.shape}")
        p.data[...] = arrays[name]
