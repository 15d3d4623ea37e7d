import builtins
import collections
import hashlib
import json
import os
import struct
import time
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grounddesk import corpus, labeling, pipeline, scenegen, storage, targets
from grounddesk.scenegen import RegionFeatures

PAIRS = storage.TableFormat("pair table", b"TEST", 3, ("rows", "width"),
                            (("<i8", ("rows",)), ("<f8", ("rows", "width"))))


def test_table_layout_is_magic_version_counts_then_columns(tmp_path):
    path = tmp_path / "pairs.bin"
    storage.write_table(path, PAIRS, (2, 3), ([np.array([7]), [-1]],
                                              [np.ones((1, 3)), np.zeros((1, 3))]))
    assert path.read_bytes() == (b"TEST" + struct.pack("<HQQ", 3, 2, 3) + struct.pack("<2q", 7, -1)
                                 + struct.pack("<6d", 1, 1, 1, 0, 0, 0))
    counts, (ids, values) = storage.read_table(path, PAIRS)
    assert counts == (2, 3) and ids.tolist() == [7, -1]
    assert values.shape == (2, 3) and values.dtype == np.float64


def test_write_table_rejects_columns_that_do_not_fill_their_shape(tmp_path):
    """Too few values, or values of the right number whose trailing
    dimensions are not the column's (a transposed block); empty chunks pass."""
    for columns in ([[1, 2]], [np.ones((1, 3))]), ([[1, 2]], [np.ones((3, 2))]):
        with pytest.raises(ValueError, match="pairs.bin"):
            storage.write_table(tmp_path / "pairs.bin", PAIRS, (2, 3), columns)
    storage.write_table(tmp_path / "pairs.bin", PAIRS, (2, 3),
                        ([[1, 2], []], [np.ones((2, 3)), np.zeros((0, 2))]))


@pytest.mark.parametrize("columns", [
    ([[1, 2]], [np.ones((1, 3))]),                  # the last column too short
    ([[1, 2]], [np.ones((3, 2))]),                  # the last column transposed
    ([[1, 2, 3]], [np.ones((2, 3))]),               # the first column too long
    ([[1, 2]], [np.ones((2, 3))], [[0]]),           # a column the format lacks
])
def test_rejected_write_leaves_the_previous_table(tmp_path, columns):
    """Every column is checked before the destination is opened, so a write
    that fails leaves the file that was there byte for byte."""
    path = tmp_path / "pairs.bin"
    storage.write_table(path, PAIRS, (2, 3), ([[4, 5]], [np.arange(6.0).reshape(2, 3)]))
    before = path.read_bytes()
    with pytest.raises(ValueError):
        storage.write_table(path, PAIRS, (2, 3), columns)
    assert path.read_bytes() == before


def test_read_table_names_the_file_for_a_width_numpy_cannot_hold(tmp_path):
    """No rows and an enormous width imply no bytes, so the length checks
    pass; the empty column still cannot be made, and the file is named."""
    path = tmp_path / "pairs.bin"
    path.write_bytes(b"TEST" + struct.pack("<HQQ", 3, 0, 2**64 - 1))
    with pytest.raises(ValueError, match="pairs.bin"):
        storage.read_table(path, PAIRS)


def test_feature_table_layout(tmp_path):
    """features.bin: magic GDFT, version 1, u64 scene, row and width counts,
    then scene ids, noise seeds, row counts, proposals and features."""
    path = tmp_path / "features.bin"
    seed = 2**64 - 1  # derive_seed gives unsigned 64-bit seeds
    scenegen.write_features(path, {5: RegionFeatures(((0.1, 0.2, 0.3, 0.4),),
                                                     np.array([[1.5, -2.0]]), seed)})
    assert path.read_bytes() == (b"GDFT" + struct.pack("<HQQQ", 1, 1, 1, 2)
                                 + struct.pack("<qQq", 5, seed, 1)
                                 + struct.pack("<4d", 0.1, 0.2, 0.3, 0.4)
                                 + struct.pack("<2d", 1.5, -2.0))


def test_write_features_rejects_features_that_do_not_match_the_proposals(tmp_path):
    bad = {0: RegionFeatures(((0.0, 0.0, 0.1, 0.1),), np.zeros((2, 4)), 0)}
    with pytest.raises(ValueError, match="features.bin"):
        scenegen.write_features(tmp_path / "features.bin", bad)


@pytest.mark.parametrize("shape", [
    [], {"inputs": {}, "outputs": {}}, {"config_hash": 1, "inputs": {}, "outputs": {}},
    {"config_hash": "h", "inputs": [], "outputs": {}},
    {"config_hash": "h", "inputs": {}, "outputs": None},
    {"config_hash": "h", "inputs": {}, "outputs": ["a"]},
    {"config_hash": "h", "inputs": {"a": 1}, "outputs": {}},
], ids=["list", "no_hash", "int_hash", "inputs_list", "outputs_null", "outputs_list",
        "int_digest"])
def test_read_manifest_rejects_other_shapes(tmp_path, shape):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(shape))
    with pytest.raises(ValueError, match="gen.json"):
        storage.read_manifest(path)


def test_read_manifest_reads_what_write_manifest_writes(tmp_path):
    storage.write_manifest(tmp_path, "gen", {"seed": 0}, {"a": "1"}, {"b": "2"})
    manifest = storage.read_manifest(storage.manifest_path(tmp_path, "gen"))
    assert (manifest["inputs"], manifest["outputs"]) == ({"a": "1"}, {"b": "2"})
    assert manifest["config_hash"] == storage.config_hash({"seed": 0})


def _read_with(decode):
    return lambda path: storage.read_jsonl(path, decode)


@pytest.fixture(scope="module")
def jsonl_files(default_bundle, default_triplets, tmp_path_factory):
    """{file name: (its first rows as lines, its reader)} for each JSON-lines
    artifact that a stage reads, written by the writer its stage uses."""
    bundle, rows = default_bundle, 4
    examples = pipeline.build_training_examples(bundle, default_triplets[:rows])
    files = {
        "descriptions.jsonl": (corpus.write_descriptions, bundle.descriptions[:rows],
                               corpus.read_descriptions),
        "scenes.jsonl": (scenegen.write_scenes, bundle.scenes[:rows], scenegen.read_scenes),
        "triplets.jsonl": (storage.write_jsonl,
                           map(labeling.triplet_to_json, default_triplets[:rows]),
                           _read_with(labeling.triplet_from_json)),
        "examples.jsonl": (storage.write_jsonl,
                           [targets.example_to_json(ex.scene_id, ex.query, ex.target)
                            for ex in examples], _read_with(targets.example_from_json)),
    }
    out = {}
    for name, (write, items, read) in files.items():
        path = tmp_path_factory.mktemp("jsonl") / name
        write(path, items)
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) > 1 and len(read(path)) == len(lines), name
        out[name] = (lines, read)
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["descriptions.jsonl", "scenes.jsonl", "triplets.jsonl",
                        "examples.jsonl"]),
       st.integers(0), st.floats(0, 1, exclude_min=True, exclude_max=True), st.booleans())
def test_a_cut_jsonl_row_names_the_file_and_the_line(jsonl_files, tmp_path_factory, name, row,
                                                     at, keep_rest):
    """A row cut strictly inside its JSON text, at the end of the file or
    with the rows after it kept, fails naming the file and the line. (A cut
    at a line boundary leaves a valid shorter file, which only the manifest
    hash catches.)"""
    lines, read = jsonl_files[name]
    row %= len(lines)
    text = lines[row].rstrip("\n")
    cut = min(max(1, int(at * len(text))), len(text) - 1)
    rest = "\n" + "".join(lines[row + 1:]) if keep_rest else ""
    path = tmp_path_factory.mktemp("cut") / name
    path.write_text("".join(lines[:row]) + text[:cut] + rest)
    with pytest.raises(ValueError, match=f"{name} line {row + 1}:"):
        read(path)


# sha256_file -----------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3 * storage.HASH_CHUNK))
@example(0)
@example(storage.HASH_CHUNK - 1)
@example(storage.HASH_CHUNK)
@example(storage.HASH_CHUNK + 1)
def test_sha256_file_is_the_digest_of_the_bytes_at_any_size(tmp_path_factory, size):
    """The file is read into one reused buffer; every size, including the
    edges of the buffer, gives hashlib's digest of the whole file."""
    path = tmp_path_factory.mktemp("sha") / "data.bin"
    data = np.random.default_rng(size).bytes(size)
    path.write_bytes(data)
    assert storage.sha256_file(path) == hashlib.sha256(data).hexdigest()


@pytest.fixture
def hashing(monkeypatch):
    """An empty digest memo, the number of times each path has been
    opened, and a clock that reads `clock[0]` (ns), first the real time."""
    opened = collections.Counter()
    clock = [time.time_ns()]
    real_open = builtins.open

    def spy_open(file, *args, **kwargs):
        opened[os.path.abspath(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(storage, "_DIGESTS", {})
    monkeypatch.setattr(storage, "time_ns", lambda: clock[0])
    monkeypatch.setattr(builtins, "open", spy_open)
    return opened, clock


HOUR_NS = 3600 * 10**9


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_a_settled_file_is_read_once(tmp_path, hashing):
    opened, clock = hashing
    path = tmp_path / "a.bin"
    path.write_bytes(b"settled")
    clock[0] += HOUR_NS
    assert storage.sha256_file(path) == storage.sha256_file(path) == _digest(b"settled")
    assert opened[str(path)] == 1


def test_a_file_rewritten_with_its_size_and_mtime_is_read_again(tmp_path, hashing):
    """Only the ctime tells the rewrite apart: os.utime puts the mtime back,
    but the kernel moves the ctime on every write and every utime."""
    opened, clock = hashing
    path = tmp_path / "a.bin"
    path.write_bytes(b"before")
    clock[0] += HOUR_NS
    assert storage.sha256_file(path) == _digest(b"before")
    st = os.stat(path)
    while os.stat(path).st_ctime_ns == st.st_ctime_ns:  # one timestamp tick at most
        path.write_bytes(b"after!")
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    now = os.stat(path)
    assert (now.st_ino, now.st_size, now.st_mtime_ns) == (st.st_ino, st.st_size, st.st_mtime_ns)
    assert storage.sha256_file(path) == _digest(b"after!")
    assert opened[str(path)] == 2


def test_a_file_replaced_by_another_inode_is_read_again(tmp_path, hashing, monkeypatch):
    """A replacement with the same size, mtime and ctime as the file it
    replaces is still read, because its inode is new. The times are pinned
    so that only the inode differs."""
    opened, clock = hashing
    path, other = tmp_path / "a.bin", tmp_path / "b.bin"
    path.write_bytes(b"first")
    other.write_bytes(b"other")
    real_stat, real_fstat = os.stat, os.fstat

    def pinned(st):
        return types.SimpleNamespace(st_dev=st.st_dev, st_ino=st.st_ino, st_size=st.st_size,
                                     st_mtime_ns=10**18, st_ctime_ns=10**18)

    monkeypatch.setattr(os, "stat", lambda p, *a, **k: pinned(real_stat(p, *a, **k)))
    monkeypatch.setattr(os, "fstat", lambda fd: pinned(real_fstat(fd)))
    clock[0] += HOUR_NS
    assert storage.sha256_file(path) == _digest(b"first")
    os.replace(other, path)
    assert storage.sha256_file(path) == _digest(b"other")
    assert opened[str(path)] == 2


@pytest.mark.parametrize("age_past_window_ns", [-storage.SETTLE_NS, 0],
                         ids=["just_written", "at_the_window"])
def test_a_file_within_the_settle_window_is_not_stored(tmp_path, hashing, age_past_window_ns):
    """A file written now, or exactly SETTLE_NS before the clock, is read on
    every call; one nanosecond older, it is stored."""
    opened, clock = hashing
    path = tmp_path / "a.bin"
    path.write_bytes(b"young")
    st = os.stat(path)
    newest = max(st.st_mtime_ns, st.st_ctime_ns)
    clock[0] = newest + storage.SETTLE_NS + age_past_window_ns
    for _ in range(2):
        assert storage.sha256_file(path) == _digest(b"young")
    assert opened[str(path)] == 2 and not storage._DIGESTS
    clock[0] = newest + storage.SETTLE_NS + 1
    storage.sha256_file(path)
    assert str(path) in storage._DIGESTS


def test_a_file_that_changes_while_it_is_hashed_is_not_stored(tmp_path, hashing, monkeypatch):
    opened, clock = hashing
    path = tmp_path / "a.bin"
    path.write_bytes(b"moving")
    spy_open = builtins.open

    def open_and_append(file, *args, **kwargs):
        fh = spy_open(file, *args, **kwargs)
        with spy_open(file, "ab") as writer:
            writer.write(b"+")
        return fh

    clock[0] += HOUR_NS
    monkeypatch.setattr(builtins, "open", open_and_append)
    storage.sha256_file(path)
    monkeypatch.setattr(builtins, "open", spy_open)
    assert not storage._DIGESTS
    assert storage.sha256_file(path) == _digest(b"moving+")
    assert opened[str(path)] == 3  # two reads and the append
