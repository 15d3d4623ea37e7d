import numpy as np
import pytest

import loop_reference as reference
from grounddesk import labeling, scenegen
from grounddesk.labeling import (BowConfig, BowDetector, EmptyQueryError, LabelerConfig,
                                 PseudoTriplet, content_words,
                                 grounding_label, label_recall, weak_to_strong_label)
from grounddesk.langparse import parse
from grounddesk.scenegen import DistractorConfig, synthesize_scene

BARE = DistractorConfig(confuser_prob=0.0, min_fillers=0, max_fillers=0,
                        extra_attribute_weights=(1.0,))


@pytest.fixture(scope="module")
def board_scene(avocado):
    tree = parse("an avocado on a cutting board")
    return synthesize_scene(tree, avocado, image_seed=0, distractor_config=BARE)


def test_content_words_strip_function_words():
    assert content_words("an avocado on a cutting board") == ["avocado", "cutting", "board"]
    assert content_words("next to the bowl") == ["bowl"]


def test_empty_query_rejected(board_scene):
    det = BowDetector()
    with pytest.raises(EmptyQueryError):
        det.detect(board_scene, "")
    with pytest.raises(EmptyQueryError):
        det.detect(board_scene, "the on a")


def test_short_phrase_scores_its_object_uniquely(board_scene):
    dets = {d.proposal_index: d.score for d in BowDetector().detect(board_scene, "an avocado")}
    assert dets[0] >= 0.9
    assert dets[1] < 0.5


def test_full_sentence_fires_on_both_objects(board_scene):
    dets = {d.proposal_index: d.score for d in
            BowDetector().detect(board_scene, "an avocado on a cutting board")}
    assert dets[0] > 0.5 and dets[1] > 0.5


def test_length_degradation_applies():
    cfg = BowConfig(noise_scale=0.0)
    det = BowDetector(cfg)
    objs = (scenegen.SceneObject(0, "dog", frozenset({"black", "small", "spotted"}),
                                 (0.1, 0.1, 0.2, 0.2)),)
    scene = scenegen.Scene(0, 0, 0, objs, frozenset({0}), ())
    short = det.detect(scene, "a black small spotted dog")[0].score
    # the longer query has 6 content words, two past the floor of 4
    long_q = det.detect(scene, "a black small spotted dog near a ball with a cup")[0].score
    assert short == 1.0
    assert long_q == pytest.approx(cfg.gamma ** 2)


@pytest.mark.parametrize("config", [BowConfig(), BowConfig(noise_scale=0.0),
                                    BowConfig(noise_scale=2.0, gamma=0.5, length_floor=1),
                                    BowConfig(seed=3)],
                         ids=["default", "no_noise", "clamped", "seed_3"])
def test_detect_is_the_per_object_loop(default_bundle, config):
    """Every phrase and every whole description of the default corpus, on
    its scenes, gives the previous loop's detections: index, box, score bit
    for bit, and order. Without noise many scores tie (at 0 and at a shared
    coverage); with large noise they clamp to 1 and tie there."""
    detector = BowDetector(config)
    ties = 0
    for scene in default_bundle.scenes:
        tree = default_bundle.index.tree(scene.description_id)
        queries = [" ".join(tree.tokens[p.start_token:p.end_token]) for p in tree.phrases]
        for query in queries + [" ".join(tree.tokens)]:
            got = detector.detect(scene, query)
            want = reference.detect(config, scene, query)
            assert got == want
            assert [d.score.hex() for d in got] == [d.score.hex() for d in want]
            ties += len(got) - len({d.score for d in got})
    assert ties > 0


def test_detector_deterministic(board_scene):
    det = BowDetector()
    a = det.detect(board_scene, "an avocado")
    b = det.detect(board_scene, "an avocado")
    assert a == b


def test_weak_to_strong_assigns_phrases(board_scene):
    triplet = weak_to_strong_label(board_scene, "an avocado on a cutting board",
                                   BowDetector(), LabelerConfig())
    assert triplet.provenance == "weak_to_strong"
    assert set(triplet.assignments) == {(0, (0, 2)), (1, (3, 6))}
    assert label_recall(triplet, board_scene) == 1.0


def test_grounding_baseline_assigns_subject_span_only(board_scene):
    triplet = grounding_label(board_scene, "an avocado on a cutting board",
                              BowDetector(), LabelerConfig())
    assert triplet.provenance == "grounding_baseline"
    assert {span for _idx, span in triplet.assignments} == {(0, 2)}
    assert {idx for idx, _span in triplet.assignments} == {0, 1}
    assert label_recall(triplet, board_scene) == 0.5


def test_single_phrase_strategies_agree(avocado):
    scene = synthesize_scene(parse("an avocado"), avocado, image_seed=1,
                             distractor_config=BARE)
    det = BowDetector()
    cfg = LabelerConfig()
    w2s = weak_to_strong_label(scene, "an avocado", det, cfg)
    base = grounding_label(scene, "an avocado", det, cfg)
    assert w2s.assignments == base.assignments


def test_threshold_one_filters_imperfect_scores(avocado):
    # objects carry an extra undescribed attribute, so coverage stays below 1
    tree = parse("an avocado on a cutting board")
    scene = synthesize_scene(tree, avocado, image_seed=2, distractor_config=DistractorConfig(
        confuser_prob=0.0, min_fillers=0, max_fillers=0, extra_attribute_weights=(0.0, 1.0)))
    triplet = weak_to_strong_label(scene, "an avocado on a cutting board",
                                   BowDetector(), LabelerConfig(threshold_p=1.0))
    assert triplet.assignments == ()
    assert label_recall(triplet, scene) == 0.0


def test_recall_requires_matching_scene(board_scene):
    triplet = PseudoTriplet(scene_id=999, description="an avocado", assignments=(),
                            provenance="weak_to_strong")
    with pytest.raises(ValueError, match="does not match"):
        label_recall(triplet, board_scene)


def test_recall_ignores_absent_referent_phrases(avocado):
    scene = synthesize_scene(parse("an avocado without a knife"), avocado, image_seed=4,
                             distractor_config=BARE)
    triplet = weak_to_strong_label(scene, "an avocado without a knife",
                                   BowDetector(), LabelerConfig())
    # the negated phrase has no referent; recall is over the subject only
    assert label_recall(triplet, scene) == 1.0


def test_labeler_config_validates_threshold():
    with pytest.raises(ValueError):
        LabelerConfig(threshold_p=1.5)


def test_recall_monotone_and_w2s_dominates(default_bundle):
    scenes = default_bundle.scenes[:60]
    descs = {s.scene_id: default_bundle.descriptions[s.description_id].text
             for s in scenes}
    det = BowDetector()
    means = {}
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        cfg = LabelerConfig(threshold_p=p)
        w2s = np.mean([label_recall(weak_to_strong_label(s, descs[s.scene_id], det, cfg), s)
                       for s in scenes])
        base = np.mean([label_recall(grounding_label(s, descs[s.scene_id], det, cfg), s)
                        for s in scenes])
        means[p] = (w2s, base)
        assert w2s >= base
    recalls = [means[p][0] for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a >= b for a, b in zip(recalls, recalls[1:]))


def test_triplet_json_roundtrip(board_scene):
    triplet = weak_to_strong_label(board_scene, "an avocado on a cutting board",
                                   BowDetector(), LabelerConfig())
    row = labeling.triplet_to_json(triplet)
    assert labeling.triplet_from_json(row) == triplet
    assert set(row) == {"scene_id", "description", "assignments", "provenance"}


def test_assignment_spans_are_phrase_spans(default_bundle, default_triplets):
    from grounddesk.langparse import parse as parse_text
    for triplet in default_triplets[:80]:
        tree = parse_text(triplet.description, default_bundle.lexicon)
        spans = {(p.start_token, p.end_token) for p in tree.phrases}
        for _idx, span in triplet.assignments:
            assert span in spans
