"""Artifact hashing, canonical JSON, and stage manifests.

Every pipeline stage writes a manifest recording the config slice, seeds,
input hashes and output hashes that produced its artifacts. Manifests contain
no timestamps or absolute paths, so identical runs produce byte-identical
artifact trees, and a stage whose manifest still matches its inputs is a
verifiable no-op.
"""

from __future__ import annotations

import hashlib
import json
import os


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


def stage_is_current(out_dir, stage: str, config_slice, inputs: dict) -> bool:
    """True when the stage's manifest matches config and inputs, and every
    recorded output still exists with its recorded hash."""
    path = manifest_path(out_dir, stage)
    if not os.path.exists(path):
        return False
    manifest = read_json(path)
    if manifest.get("config_hash") != config_hash(config_slice):
        return False
    if manifest.get("inputs") != inputs:
        return False
    for rel, digest in manifest.get("outputs", {}).items():
        full = os.path.join(out_dir, rel)
        if not os.path.exists(full) or sha256_file(full) != digest:
            return False
    return True
