import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as reference
from grounddesk import corpus, langparse, scenegen
from grounddesk.langparse import parse, phrase_noun_tokens
from grounddesk.scenegen import (BenchmarkConfig, DistractorConfig, RegionFeatures, SceneObject,
                                 make_benchmark, render_features, synthesize_scene,
                                 word_vector, write_features, read_features)

BARE = DistractorConfig(confuser_prob=0.0, min_fillers=0, max_fillers=0,
                        extra_attribute_weights=(1.0,))


# Independent re-statement of the relation geometry, kept deliberately
# separate from scenegen internals.

def oracle_relation(rel, a, b):
    ax0, ay0, aw, ah = a
    bx0, by0, bw, bh = b

    def overlap(lo1, hi1, lo2, hi2):
        return max(0.0, min(hi1, hi2) - max(lo1, lo2))

    x_ov = overlap(ax0, ax0 + aw, bx0, bx0 + bw)
    y_ov = overlap(ay0, ay0 + ah, by0, by0 + bh)
    inter = x_ov * y_ov
    union = aw * ah + bw * bh - inter
    iou = inter / union if union else 0.0
    if rel == "on":
        return abs((ay0 + ah) - by0) <= 0.02 and x_ov >= 0.5 * min(aw, bw)
    if rel == "under":
        return abs(ay0 - (by0 + bh)) <= 0.02 and x_ov >= 0.5 * min(aw, bw)
    if rel in ("near", "next to"):
        dx = max(0.0, max(bx0 - (ax0 + aw), ax0 - (bx0 + bw)))
        dy = max(0.0, max(by0 - (ay0 + ah), ay0 - (by0 + bh)))
        return inter <= 0.0 and (dx ** 2 + dy ** 2) ** 0.5 <= 0.1
    if rel == "inside":
        return ax0 >= bx0 and ay0 >= by0 and ax0 + aw <= bx0 + bw and ay0 + ah <= by0 + bh
    if rel in ("with", "holding"):
        return 0.0 < iou <= 0.3
    raise ValueError(rel)


def oracle_referents(scene, tree):
    out = set()
    subj = tree.phrases[0]
    for obj in scene.objects:
        if obj.category != " ".join(phrase_noun_tokens(tree, subj)):
            continue
        if not set(subj.modifiers) <= obj.attributes:
            continue
        good = True
        for ph in tree.phrases[1:]:
            noun = " ".join(phrase_noun_tokens(tree, ph))
            partners = [o for o in scene.objects if o.instance_id != obj.instance_id
                        and o.category == noun and set(ph.modifiers) <= o.attributes]
            if ph.negated:
                if any(oracle_relation("with", obj.box, o.box) for o in partners):
                    good = False
            else:
                if not any(oracle_relation(ph.governing_relation, obj.box, o.box)
                           for o in partners):
                    good = False
        if good:
            out.add(obj.instance_id)
    return out


def test_avocado_on_board_geometry(avocado):
    tree = parse("an avocado on a cutting board")
    scene = synthesize_scene(tree, avocado, image_seed=0, distractor_config=BARE)
    av, board = scene.objects[0], scene.objects[1]
    assert abs((av.box[1] + av.box[3]) - board.box[1]) <= 0.02
    x_ov = min(av.box[0] + av.box[2], board.box[0] + board.box[2]) - max(av.box[0], board.box[0])
    assert x_ov > 0
    assert scene.relation_edges == ((0, "on", 1),)
    assert scene.referent_ids == {0}


@pytest.mark.parametrize("text,rel", [
    ("an avocado on a cutting board", "on"),
    ("an avocado under a table", "under"),
    ("a cup near a bowl", "near"),
    ("a cup next to a bowl", "next to"),
    ("an avocado inside a bowl", "inside"),
    ("a person holding a cup", "holding"),
    ("a dog with a ball", "with"),
])
def test_relation_edges_satisfy_oracle(desk20, text, rel):
    tree = parse(text)
    cat = next(c for c in desk20 if c.name == tree.phrases[0].head_noun
               or c.name.endswith(tree.phrases[0].head_noun))
    for seed in range(5):
        scene = synthesize_scene(tree, cat, image_seed=seed)
        for sid, edge_rel, oid in scene.relation_edges:
            assert edge_rel == rel
            assert oracle_relation(edge_rel, scene.object_by_id(sid).box,
                                   scene.object_by_id(oid).box)


def test_every_corpus_edge_satisfies_oracle(default_bundle):
    for scene in default_bundle.scenes[:60]:
        for sid, rel, oid in scene.relation_edges:
            assert oracle_relation(rel, scene.object_by_id(sid).box,
                                   scene.object_by_id(oid).box)


def test_referents_match_oracle(default_bundle):
    for scene in default_bundle.scenes[:80]:
        desc = default_bundle.descriptions[scene.description_id]
        tree = parse(desc.text)
        assert set(scene.referent_ids) == oracle_referents(scene, tree)


def test_seed_fanout_distinct(avocado):
    tree = parse("a green avocado on a cutting board")
    scenes = [synthesize_scene(tree, avocado, image_seed=s, scene_id=s, description_id=7)
              for s in range(8)]
    assert len({tuple(o.box for o in s.objects) for s in scenes}) == 8
    assert all(s.description_id == 7 for s in scenes)


def test_single_phrase_scene(avocado):
    scene = synthesize_scene(parse("an avocado"), avocado, image_seed=3,
                             distractor_config=BARE)
    assert len(scene.objects) >= 1
    assert scene.relation_edges == ()


def test_negation_scene_keeps_subject_clean(desk20):
    dog = next(c for c in desk20 if c.name == "dog")
    tree = parse("a dog without a ball")
    hits = 0
    for seed in range(10):
        scene = synthesize_scene(tree, dog, image_seed=seed, distractor_config=DistractorConfig(
            confuser_prob=0.0, min_fillers=0, max_fillers=0))
        assert 0 in scene.referent_ids
        balls = [o for o in scene.objects if o.category == "ball"]
        if balls:
            hits += 1
            subj = scene.objects[0]
            assert all(not oracle_relation("with", subj.box, b.box) for b in balls)
            confusers = [o for o in scene.objects if o.category == "dog" and o.instance_id != 0]
            assert confusers and any(oracle_relation("with", c.box, b.box)
                                     for c in confusers for b in balls)
            assert all(c.instance_id not in scene.referent_ids for c in confusers)
    assert hits >= 5  # absence confuser lands with probability 0.8


def test_confuser_excluded_by_attributes(avocado):
    tree = parse("a ripe green avocado on a cutting board")
    seen_confuser = False
    for seed in range(10):
        scene = synthesize_scene(tree, avocado, image_seed=seed,
                                 distractor_config=DistractorConfig(confuser_prob=1.0))
        for obj in scene.objects[1:]:
            if obj.category == "avocado":
                seen_confuser = True
                assert not {"ripe", "green"} <= obj.attributes
                assert obj.instance_id not in scene.referent_ids
    assert seen_confuser


def test_scene_determinism(avocado):
    tree = parse("a green avocado near a bowl")
    a = synthesize_scene(tree, avocado, image_seed=5)
    b = synthesize_scene(tree, avocado, image_seed=5)
    assert a == b


def test_boxes_inside_unit_square(default_bundle):
    for scene in default_bundle.scenes[:100]:
        for obj in scene.objects:
            x, y, w, h = obj.box
            assert x >= 0 and y >= 0 and w > 0 and h > 0
            assert x + w <= 1.0 + 1e-9 and y + h <= 1.0 + 1e-9


def test_features_identical_rows_for_identical_objects():
    objs = (SceneObject(0, "cup", frozenset({"red"}), (0.2, 0.2, 0.1, 0.1)),
            SceneObject(1, "cup", frozenset({"red"}), (0.2, 0.2, 0.1, 0.1)))
    scene = scenegen.Scene(0, 0, 0, objs, frozenset({0}), ())
    rf = render_features(scene, noise_seed=1, d=32, b=0, sigma=0.0)
    assert np.array_equal(rf.features[0], rf.features[1])


def test_features_distinct_categories_nearly_orthogonal():
    objs = (SceneObject(0, "avocado", frozenset(), (0.1, 0.1, 0.2, 0.2)),
            SceneObject(1, "bicycle", frozenset(), (0.6, 0.6, 0.2, 0.2)))
    scene = scenegen.Scene(0, 0, 0, objs, frozenset({0}), ())
    rf = render_features(scene, noise_seed=0, d=64, b=0, sigma=0.0)
    a, b = rf.features
    cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    assert cos < 0.5


def test_features_noise_separates_from_word_content():
    objs = (SceneObject(0, "avocado", frozenset({"green"}), (0.1, 0.2, 0.3, 0.2)),)
    scene = scenegen.Scene(3, 0, 0, objs, frozenset({0}), ())
    rf1 = render_features(scene, noise_seed=1, d=32, b=0, sigma=0.05)
    rf2 = render_features(scene, noise_seed=2, d=32, b=0, sigma=0.05)
    assert not np.array_equal(rf1.features, rf2.features)
    keyed = word_vector("avocado", 32) + word_vector("green", 32)
    keyed[:4] += np.asarray(objs[0].box) * scenegen.BOX_ENCODING_SCALE
    for rf in (rf1, rf2):
        noise = rf.features[0] - keyed
        assert np.linalg.norm(noise) < 0.1


def test_background_rows_are_pure_noise():
    objs = (SceneObject(0, "cup", frozenset(), (0.2, 0.2, 0.1, 0.1)),)
    scene = scenegen.Scene(0, 0, 0, objs, frozenset({0}), ())
    rf = render_features(scene, noise_seed=0, d=16, b=2, sigma=0.0)
    assert rf.features.shape == (3, 16)
    assert np.allclose(rf.features[1:], 0.0)
    assert len(rf.proposals) == 3


def test_features_require_min_width():
    objs = (SceneObject(0, "cup", frozenset(), (0.2, 0.2, 0.1, 0.1)),)
    scene = scenegen.Scene(0, 0, 0, objs, frozenset({0}), ())
    with pytest.raises(ValueError):
        render_features(scene, noise_seed=0, d=4)


def _float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Any float: hypothesis's own, and every bit pattern, NaN payloads included.
any_float = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                      st.integers(0, 2**64 - 1).map(_float_from_bits))


@st.composite
def feature_tables(draw):
    """{scene_id: RegionFeatures} of one width, as the scenes stage writes them."""
    width = draw(st.integers(0, 5))
    out = {}
    for scene_id in draw(st.lists(st.integers(-2**63, 2**63 - 1), max_size=4, unique=True)):
        n = draw(st.integers(0, 4))
        proposals = draw(st.lists(st.tuples(any_float, any_float, any_float, any_float),
                                  min_size=n, max_size=n))
        values = draw(st.lists(any_float, min_size=n * width, max_size=n * width))
        out[scene_id] = RegionFeatures(proposals=tuple(proposals),
                                       features=np.array(values, dtype=float).reshape(n, width),
                                       noise_seed=draw(st.integers(0, 2**64 - 1)))
    return out


def _bits(proposals) -> bytes:
    return np.array(proposals, dtype=float).reshape(-1, 4).tobytes()


@settings(max_examples=200, deadline=None)
@given(feature_tables())
def test_feature_file_roundtrip(tmp_path_factory, features):
    """Scene order, ids, seeds, proposals and features read back as written,
    any float included; a scene without rows stays a scene."""
    path = tmp_path_factory.mktemp("features") / "features.bin"
    write_features(path, features)
    n = sum(len(rf.proposals) for rf in features.values())
    width = next(iter(features.values())).features.shape[1] if features else 0
    assert len(path.read_bytes()) == 30 + 24 * len(features) + 32 * n + 8 * n * width
    back = read_features(path)
    assert list(back) == list(features)
    for scene_id, rf in features.items():
        got = back[scene_id]
        assert type(got.noise_seed) is int and got.noise_seed == rf.noise_seed
        assert all(type(v) is float for box in got.proposals for v in box)
        assert _bits(got.proposals) == _bits(rf.proposals)
        assert got.features.dtype == np.float64 and got.features.shape == rf.features.shape
        assert got.features.tobytes() == rf.features.tobytes()


def _damaged_feature_tables(raw: bytes, n_scenes: int, n_rows: int):
    """Every proper prefix of a feature table; the table with bytes appended;
    with one magic byte, its version, a count or one per-scene row count
    changed; with a row count made -1 and the next raised to keep the sum;
    and with a scene id repeated. A table without rows holds no feature
    values, so its width is changed only when it has rows."""
    for cut in range(len(raw)):
        yield raw[:cut]
    for extra in range(1, 9):
        yield raw + b"\0" * extra
    magic = len(scenegen.FEATURE_TABLE.magic)
    for i in range(magic):
        yield raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1:]
    ids, row_counts = magic + 26, magic + 26 + 16 * n_scenes
    fields = [(magic, "<H"), (magic + 2, "<Q"), (magic + 10, "<Q")]
    fields += [(magic + 18, "<Q")] if n_rows else []
    fields += [(row_counts + 8 * s, "<q") for s in range(n_scenes)]
    for at, fmt in fields:
        (value,) = struct.unpack_from(fmt, raw, at)
        for other in (value + 1, value - 1):
            if other >= 0 or fmt == "<q":
                yield raw[:at] + struct.pack(fmt, other) + raw[at + struct.calcsize(fmt):]
    if n_scenes >= 2:
        first, second = struct.unpack_from("<qq", raw, row_counts)
        yield raw[:row_counts] + struct.pack("<qq", -1, second + first + 1) + raw[row_counts + 16:]
        yield raw[:ids + 8] + raw[ids:ids + 8] + raw[ids + 16:]


@settings(max_examples=60, deadline=None)
@given(feature_tables())
def test_read_features_rejects_a_length_that_disagrees_with_the_header(tmp_path_factory,
                                                                        features):
    """Every truncation, every over-long file, a changed magic, version or
    count, a bad per-scene row count and a repeated scene id."""
    path = tmp_path_factory.mktemp("bad") / "features.bin"
    write_features(path, features)
    raw = path.read_bytes()
    n_rows = sum(len(rf.proposals) for rf in features.values())
    for damaged in _damaged_feature_tables(raw, len(features), n_rows):
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match=r"features\.bin"):
            read_features(path)


def test_scene_jsonl_roundtrip(tmp_path, default_bundle):
    path = tmp_path / "scenes.jsonl"
    scenes = default_bundle.scenes[:10]
    scenegen.write_scenes(path, scenes)
    assert scenegen.read_scenes(path) == list(scenes)


def test_benchmark_positive_only(desk20):
    bench = make_benchmark(desk20, 10, seed=42,
                           config=BenchmarkConfig(fraction_negative=0.0))
    assert all(label.gt_boxes for label in bench.description_labels)


def test_benchmark_default_has_positives_and_negatives(desk20):
    bench = make_benchmark(desk20, 10, seed=42)
    by_scene = {}
    for label in bench.description_labels:
        pos, neg = by_scene.get(label.scene_id, (0, 0))
        if label.gt_boxes:
            pos += 1
        else:
            neg += 1
        by_scene[label.scene_id] = (pos, neg)
    assert len(by_scene) == 10
    assert all(pos >= 1 and neg >= 1 for pos, neg in by_scene.values())


def test_benchmark_negatives_truly_empty(desk20):
    bench = make_benchmark(desk20, 12, seed=7)
    scenes = {s.scene_id: s for s in bench.scenes}
    for label in bench.description_labels:
        refs = oracle_referents(scenes[label.scene_id], parse(label.text))
        if label.gt_boxes:
            assert refs
        else:
            assert not refs


def test_scene_from_backend_recomputes_referents(avocado):
    def backend(description, seed):
        tree = parse(description)
        scene = synthesize_scene(tree, avocado, image_seed=seed, distractor_config=BARE)
        row = scenegen.scene_to_json(scene)
        row["referent_ids"] = [99]  # a lying backend
        return row

    scene = scenegen.scene_from_backend("a green avocado on a cutting board", 11, backend,
                                        scene_id=4, description_id=9)
    assert scene.scene_id == 4 and scene.description_id == 9
    assert scene.referent_ids == {0}


def test_scene_from_backend_rejects_bad_boxes():
    def backend(description, seed):
        return {"scene_id": 0, "description_id": 0, "image_seed": seed,
                "objects": [{"instance_id": 0, "category": "avocado",
                             "attributes": [], "box": [0.9, 0.9, 0.5, 0.5]}],
                "relation_edges": [], "referent_ids": []}

    with pytest.raises(scenegen.SceneConstructionError, match="unit square"):
        scenegen.scene_from_backend("an avocado", 0, backend)


def test_word_vector_is_shared_and_read_only():
    v = word_vector("avocado", 32)
    assert np.array_equal(v, reference.word_vector("avocado", 32))
    assert word_vector("avocado", 32) is v
    assert np.array_equal(word_vector("avocado", 16), reference.word_vector("avocado", 16))
    with pytest.raises(ValueError, match="read-only"):
        v += 1.0
    assert np.array_equal(word_vector("avocado", 32), reference.word_vector("avocado", 32))


def _bytes_equal(a, b) -> bool:
    """Equal shape, dtype and bytes: -0.0 and 0.0 differ, as in features.bin."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d,b,sigma", [(64, 2, 0.05), (16, 0, 0.0), (8, 3, 0.2)])
def test_render_features_matches_the_per_word_loop(default_bundle, d, b, sigma):
    """One padded gather and one reduce per scene give the per-word loop's
    rows bit for bit, over every scene of the default corpus (profiles of
    different lengths side by side), a scene without objects and one whose
    object has a single word."""
    lone = SceneObject(0, "dog", frozenset(), (0.1, 0.2, 0.3, 0.4))
    scenes = list(default_bundle.scenes) + [
        dataclasses.replace(default_bundle.scenes[0], scene_id=900, objects=()),
        dataclasses.replace(default_bundle.scenes[0], scene_id=901, objects=(lone,))]
    for scene in scenes:
        rf = render_features(scene, noise_seed=5, d=d, b=b, sigma=sigma)
        proposals, feats = reference.render_features(scene, 5, d, b, sigma)
        assert rf.proposals == proposals
        assert _bytes_equal(rf.features, feats), scene.scene_id


