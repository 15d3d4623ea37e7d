"""Artifact hashing, canonical JSON, packed tables and stage manifests.

Every pipeline stage writes a manifest recording the config slice, seeds,
input hashes and output hashes that produced its artifacts. Manifests contain
no timestamps or absolute paths, so identical runs produce byte-identical
artifact trees, and a stage whose manifest still matches its inputs is a
verifiable no-op.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return sha256_text(canonical_json(obj))


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_jsonl(path, rows) -> None:
    """One json.dumps(row, sort_keys=True) line per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def read_jsonl(path, decode) -> list:
    """decode(row) for each line of a JSON-lines file. A line that does not
    parse or decode raises ValueError naming the file and the line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                out.append(decode(json.loads(line)))
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"{path} line {lineno}: {detail}") from exc
    return out


@dataclass(frozen=True)
class TableFormat:
    """A packed table's layout: magic, u16 version, one u64 per named count,
    then each column's values in order as little-endian `dtype`. A column is
    (dtype, shape); each entry of a shape is a count's name or a fixed length."""
    name: str
    magic: bytes
    version: int
    counts: tuple[str, ...]
    columns: tuple[tuple[str, tuple], ...]

    def shapes(self, counts) -> list[tuple[int, ...]]:
        named = dict(zip(self.counts, counts))
        return [tuple(named.get(dim, dim) for dim in shape) for _, shape in self.columns]


def write_table(path, fmt: TableFormat, counts, columns) -> None:
    """Write a `fmt` table with the given counts. `columns` holds, for each
    column, the arrays whose values, concatenated, make up that column; each
    non-empty array must have the column's trailing dimensions. Every column
    is checked before the file is opened, so a rejected write leaves the
    file that was there."""
    checked = []
    for (dtype, _), shape, chunks in zip(fmt.columns, fmt.shapes(counts), columns, strict=True):
        arrays = [np.ascontiguousarray(chunk, dtype=dtype) for chunk in chunks]
        if (sum(array.size for array in arrays) != math.prod(shape)
                or any(array.size and array.shape[1:] != shape[1:] for array in arrays)):
            raise ValueError(f"{path}: the values given do not fill a {shape} column")
        checked.append(arrays)
    with open(path, "wb") as fh:
        fh.write(fmt.magic + struct.pack(f"<H{len(fmt.counts)}Q", fmt.version, *counts))
        for arrays in checked:
            fh.writelines(arrays)


def read_table(path, fmt: TableFormat) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """The counts and the columns of a write_table() file, each column an
    array of its dtype and shape, read straight from the file. Checks the
    magic, the version and that the file is exactly as long as its counts
    say; raises ValueError naming the file."""
    fields = struct.Struct(f"<H{len(fmt.counts)}Q")
    with open(path, "rb") as fh:
        head_size = len(fmt.magic) + fields.size
        head = fh.read(head_size)
        if head[:len(fmt.magic)] != fmt.magic:
            raise ValueError(f"{path}: not a {fmt.name}")
        if len(head) < head_size:
            raise ValueError(f"{path}: truncated {fmt.name}: header needs {head_size} bytes, "
                             f"found {len(head)}")
        version, *counts = fields.unpack_from(head, len(fmt.magic))
        if version != fmt.version:
            raise ValueError(f"{path}: unsupported {fmt.name} version {version}")
        shapes = fmt.shapes(counts)
        size = head_size + sum(np.dtype(dtype).itemsize * math.prod(shape)
                               for (dtype, _), shape in zip(fmt.columns, shapes))
        found = os.fstat(fh.fileno()).st_size
        if found != size:
            raise ValueError(f"{path}: a {fmt.name} with counts {dict(zip(fmt.counts, counts))} "
                             f"needs {size} bytes, found {found}")
        try:
            columns = [np.empty(shape, dtype=dtype)
                       for (dtype, _), shape in zip(fmt.columns, shapes)]
        except ValueError as exc:  # an empty column with a dimension numpy cannot hold
            raise ValueError(f"{path}: {exc}") from exc
        if sum(fh.readinto(column) for column in columns) != size - head_size:
            raise ValueError(f"{path}: {fmt.name} changed while it was read")
    return tuple(counts), columns


def row_slices(path, counts: np.ndarray, total: int) -> list[slice]:
    """The slice of the grouped columns that each row holds, from the rows'
    counts, which must be non-negative and sum to `total`."""
    counts = counts.tolist()
    if min(counts, default=0) < 0 or sum(counts) != total:
        raise ValueError(f"{path}: per-row counts must be non-negative and sum to {total}")
    return [slice(end - n, end) for n, end in zip(counts, itertools.accumulate(counts))]


def hash_tree(root) -> dict:
    """Relative path -> sha256 for every file under root, sorted."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = sha256_file(full)
    return out


def manifest_path(out_dir, stage: str) -> str:
    return os.path.join(out_dir, "manifests", f"{stage}.json")


def write_manifest(out_dir, stage: str, config_slice, inputs: dict, outputs: dict) -> None:
    os.makedirs(os.path.join(out_dir, "manifests"), exist_ok=True)
    write_json(manifest_path(out_dir, stage), {
        "stage": stage,
        "config": config_slice,
        "config_hash": config_hash(config_slice),
        "inputs": inputs,
        "outputs": outputs,
    })


def read_manifest(path) -> dict:
    """A stage manifest, checked to be a JSON object with a config_hash and
    with inputs and outputs that map file names to hashes. Raises ValueError
    naming the file otherwise."""
    try:
        manifest = read_json(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config_hash"), str)
            and all(isinstance(manifest.get(key), dict)
                    and all(isinstance(v, str) for v in manifest[key].values())
                    for key in ("inputs", "outputs"))):
        raise ValueError(f"{path}: not a stage manifest: it needs a config_hash, and inputs "
                         f"and outputs that map file names to hashes")
    return manifest


def stage_is_current(out_dir, stage: str, config_slice, inputs: dict,
                     outputs) -> dict | None:
    """The manifest's output hashes, each just verified, when the stage is
    current: its manifest matches config and inputs, records every file in
    `outputs` (the files the stage is declared to write), and every recorded
    output still exists with its recorded hash. None otherwise."""
    path = manifest_path(out_dir, stage)
    if not os.path.exists(path):
        return None
    manifest = read_manifest(path)
    if manifest["config_hash"] != config_hash(config_slice) or manifest["inputs"] != inputs:
        return None
    recorded = manifest["outputs"]
    if not set(outputs) <= set(recorded):
        return None
    for rel, digest in recorded.items():
        full = os.path.join(out_dir, rel)
        if not os.path.exists(full) or sha256_file(full) != digest:
            return None
    return dict(recorded)
