import dataclasses
import json

import numpy as np
import pytest

from grounddesk import corpus, evalkit, groundnet, pipeline
from grounddesk.groundnet import UNK, TrainConfig
from grounddesk.scenegen import BenchmarkConfig, read_scenes, write_scenes


def test_default_corpus_shape(default_bundle):
    assert len(default_bundle.scenes) == 200
    assert len(default_bundle.descriptions) == 20 * 5
    assert [d.id for d in default_bundle.descriptions] == list(range(100))
    for scene in default_bundle.scenes:
        assert 0 <= scene.description_id < 100
        assert scene.scene_id in default_bundle.features
        rf = default_bundle.features[scene.scene_id]
        assert rf.features.shape == (len(scene.objects) + 2, 64)


def test_vocabulary_covers_corpus(default_bundle):
    vocab = pipeline.build_vocabulary(default_bundle.pool)
    unk = vocab.index[UNK]
    for desc in default_bundle.descriptions:
        ids = vocab.ids(desc.text.split())
        assert unk not in ids, desc.text


# The model's and the weak detector's vocabularies, pinned: a model vocabulary
# fixes the rows of every trained checkpoint, and the detector's fixes which
# words a region's features decode to.
CLOSED = (
    '.', '<unk>', 'a', 'an', 'holding', 'inside', 'leaning', 'lying', 'near', 'next', 'on',
    'perched', 'placed', 'resting', 'sitting', 'standing', 'the', 'to', 'under', 'with',
    'without')
DESK20_WORDS = (
    'apple', 'avocado', 'backpack', 'ball', 'banana', 'bicycle', 'black', 'blanket', 'blue',
    'board', 'book', 'bottle', 'bowl', 'brown', 'car', 'cat', 'ceramic', 'chair', 'collar',
    'cup', 'cushion', 'cutting', 'dog', 'dots', 'empty', 'fluffy', 'folded', 'fresh', 'glass',
    'gray', 'green', 'halved', 'handle', 'knife', 'lamp', 'laptop', 'large', 'leash',
    'leather', 'lid', 'metal', 'old', 'person', 'pillow', 'plastic', 'red', 'ripe', 'saucer',
    'shiny', 'silver', 'small', 'soft', 'spots', 'spotted', 'sticker', 'striped', 'stripes',
    'table', 'tall', 'white', 'wooden', 'worn', 'yellow', 'young')
DESK80_WORDS = (
    'bag', 'basket', 'bench', 'boot', 'box', 'bucket', 'cabinet', 'camera', 'candle',
    'cardboard', 'charger', 'clock', 'couch', 'cracked', 'curtain', 'desk', 'drawer', 'flower',
    'folder', 'fork', 'frame', 'framed', 'glove', 'hat', 'headphones', 'hook', 'jacket',
    'kettle', 'keyboard', 'leafy', 'long', 'mat', 'mirror', 'monitor', 'mouse', 'muddy', 'mug',
    'notebook', 'pan', 'pen', 'pencil', 'phone', 'pink', 'plant', 'plate', 'pot', 'remote',
    'round', 'rug', 'scarf', 'scissors', 'sharpened', 'shelf', 'shirt', 'shoe', 'sock',
    'speaker', 'spoon', 'stapler', 'stool', 'strap', 'tablet', 'tangled', 'tape', 'teapot',
    'towel', 'umbrella', 'vase', 'wall', 'window', 'woven')


@pytest.mark.parametrize("pool,words,size", [("desk20", DESK20_WORDS, 85),
                                             ("desk80", DESK20_WORDS + DESK80_WORDS, 156)])
def test_build_vocabulary_is_pinned(pool, words, size):
    tokens = pipeline.build_vocabulary(corpus.build_entity_pool(pool)).tokens
    assert tokens == tuple(sorted(CLOSED + words))
    assert len(tokens) == size


def test_description_ids_are_positions(default_bundle):
    """A scene's description_id indexes the corpus: each description's id is
    its position, as the description reader requires of the file."""
    assert [d.id for d in default_bundle.descriptions] == list(range(len(
        default_bundle.descriptions)))


def test_label_corpus_covers_every_scene(default_bundle, default_triplets):
    assert len(default_triplets) == len(default_bundle.scenes)
    assert all(t.scene_id == i for i, t in enumerate(default_triplets))
    assigned = sum(1 for t in default_triplets if t.assignments)
    assert assigned / len(default_triplets) > 0.9


def test_label_corpus_strategies(default_bundle, default_triplets):
    small = dataclasses.replace(default_bundle, scenes=default_bundle.scenes[:10])
    baseline = pipeline.label_corpus(small, strategy="grounding")
    assert {t.provenance for t in baseline} == {"grounding_baseline"}
    assert pipeline.label_corpus(small, strategy="weak_to_strong") == default_triplets[:10]


@pytest.mark.parametrize("strategy", ["weak-to-strong", "Grounding", ""])
def test_label_corpus_rejects_unknown_strategy(default_bundle, strategy):
    with pytest.raises(ValueError, match="unknown labeling strategy"):
        pipeline.label_corpus(default_bundle, strategy=strategy)


def test_training_examples_match_features(default_bundle, default_triplets):
    examples = pipeline.build_training_examples(default_bundle, default_triplets,
                                                pipeline.FULL_VARIANT, seed=0)
    assert examples
    for ex in examples[:20]:
        n, m = ex.target.matrix.shape
        assert ex.features.shape[0] == n
        assert m == len(ex.query.tokens)


def test_detection_examples_one_per_scene(default_bundle):
    examples = pipeline.build_detection_examples(default_bundle, seed=0)
    assert len(examples) == len(default_bundle.scenes)
    kinds = {item.kind for ex in examples for item in ex.query.items}
    assert kinds == {"detection_category"}


def test_signal_ladder_order():
    assert [v.name for v in pipeline.SIGNAL_LADDER] == \
        ["naive", "intra_neg", "struct_neg", "struct_pos"]
    assert pipeline.FULL_VARIANT.name == "struct_pos"
    assert pipeline.SIGNAL_LADDER[0].k_neg == 0
    assert not pipeline.SIGNAL_LADDER[0].target_config.sentence_level_positive
    assert pipeline.SIGNAL_LADDER[-1].include_struct_pos


@pytest.fixture(scope="module")
def tiny_trained(default_bundle, default_triplets):
    config = TrainConfig(epochs=3, learning_rate=0.1, seed=0)
    model, history = pipeline.train_variant(
        default_bundle, default_triplets[:40], pipeline.FULL_VARIANT, config)
    return model, history


def test_train_variant_runs(tiny_trained):
    model, history = tiny_trained
    assert len(history) == 3
    assert np.isfinite(history[-1][1])


def test_benchmark_evaluation_roundtrip(default_bundle, tiny_trained):
    model, _ = tiny_trained
    bench = pipeline.default_benchmark(default_bundle.pool, seed=0, n_scenes=6,
                                       config=BenchmarkConfig(fraction_negative=0.5))
    columns = pipeline.run_model_on_benchmark(model, bench, score_threshold=0.2,
                                              lexicon=default_bundle.lexicon)
    label_ids = {l.label_id for l in bench.category_labels} | \
        {l.label_id for l in bench.description_labels}
    assert set(columns.keys[:, 0].tolist()) <= label_ids
    report = pipeline.evaluate_model(model, bench, score_threshold=0.2,
                                     lexicon=default_bundle.lexicon)
    assert 0.0 <= report.AP_categ <= 100.0 or np.isnan(report.AP_categ)
    assert sum(report.bucket_counts) == len(bench.description_labels)


def test_inference_returns_int64_columns_in_inference_order(default_bundle, tiny_trained):
    """run_model_on_benchmark() gives ResultColumns with int64 keys that
    never repeat and counts that sum to the detections, each row's scores
    highest first, in inference order: each scene's category labels, scene
    by scene, then the description labels by scene. At score threshold 0
    every label has a row on its every scene."""
    model, _ = tiny_trained
    bench = pipeline.default_benchmark(default_bundle.pool, seed=0, n_scenes=6,
                                       config=BenchmarkConfig(fraction_negative=0.5))
    columns = pipeline.run_model_on_benchmark(model, bench, score_threshold=0.0,
                                              lexicon=default_bundle.lexicon)
    assert isinstance(columns, evalkit.ResultColumns)
    assert columns.keys.dtype == columns.counts.dtype == np.int64
    assert columns.keys.shape == (len(columns.counts), 2) and (columns.counts > 0).all()
    assert columns.counts.sum() == len(columns.scores) == len(columns.boxes)
    assert columns.boxes.shape[1:] == (4,)
    keys = [tuple(key) for key in columns.keys.tolist()]
    assert len(set(keys)) == len(keys)
    by_scene = {}
    for label in bench.description_labels:
        by_scene.setdefault(label.scene_id, []).append(label.label_id)
    assert keys == ([(label.label_id, scene_id) for scene_id in bench.scene_ids
                     for label in bench.category_labels]
                    + [(label_id, scene_id) for scene_id, label_ids in by_scene.items()
                       for label_id in label_ids])
    for row in np.split(columns.scores, np.cumsum(columns.counts)[:-1]):
        assert (np.diff(row) <= 0).all()


def test_report_from_the_score_files_equals_the_report_in_memory(default_bundle, tiny_trained,
                                                                 tmp_path):
    """The eval's matching half reads the match table back from
    match_table.bin; every AP it reports equals the in-memory one. The JSON
    exports hold the in-memory columns, the labels' JSON rows and scenes
    whose category labels are the benchmark's."""
    model, _ = tiny_trained
    lexicon = default_bundle.lexicon
    bench = pipeline.default_benchmark(default_bundle.pool, seed=0, n_scenes=8,
                                       config=BenchmarkConfig(fraction_negative=0.5))
    results = pipeline.run_model_on_benchmark(model, bench, score_threshold=0.0, lexicon=lexicon)
    evalkit.write_match_table(tmp_path / "match_table.bin", evalkit.match_table(results, bench))
    evalkit.write_results(tmp_path / "results.jsonl", results)
    write_scenes(tmp_path / "scenes.jsonl", bench.scenes)
    evalkit.write_description_labels(tmp_path / "labels.jsonl", bench.description_labels)

    def rows(name):
        return [json.loads(line) for line in (tmp_path / name).read_text().splitlines()]

    exported = rows("results.jsonl")
    dets = [det for row in exported for det in row["detections"]]
    assert [[row["label_id"], row["scene_id"]] for row in exported] == results.keys.tolist()
    assert [len(row["detections"]) for row in exported] == results.counts.tolist()
    assert [det["box"] for det in dets] == results.boxes.tolist()
    assert [det["score"] for det in dets] == results.scores.tolist()
    assert rows("labels.jsonl") == [
        {"label_id": label.label_id, "scene_id": label.scene_id, "text": label.text,
         "gt_boxes": [list(box) for box in label.gt_boxes]} for label in bench.description_labels]
    scenes = tuple(read_scenes(tmp_path / "scenes.jsonl"))
    assert [scene.scene_id for scene in scenes] == list(bench.scene_ids)
    assert evalkit.category_labels(default_bundle.pool, scenes) == bench.category_labels
    for iou_threshold in (0.5, 0.75):
        in_memory = evalkit.omnilabel_report(results, bench, iou_threshold)
        from_table = evalkit.omnilabel_report(
            evalkit.read_match_table(tmp_path / "match_table.bin"), iou_threshold=iou_threshold)
        assert from_table == in_memory
        assert in_memory.AP_categ > 0


def test_mean_label_recall_range(default_bundle, default_triplets):
    value = pipeline.mean_label_recall(default_bundle, default_triplets)
    assert 0.0 < value <= 1.0


def test_default_corpus_training_halves_loss(default_bundle, default_triplets):
    config = TrainConfig(epochs=30, learning_rate=0.1, seed=0)
    _model, history = pipeline.train_variant(default_bundle, default_triplets,
                                             pipeline.FULL_VARIANT, config)
    assert len(history) == 30
    assert history[-1][1] < 0.5 * history[0][1]
