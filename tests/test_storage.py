import json
import struct

import numpy as np
import pytest

from grounddesk import scenegen, storage
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
    with pytest.raises(ValueError, match="pairs.bin"):
        storage.write_table(tmp_path / "pairs.bin", PAIRS, (2, 3),
                            ([[1, 2]], [np.ones((1, 3))]))


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
