import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from grounddesk import targets
from grounddesk.corpus import ObjectDescription
from grounddesk.labeling import PseudoTriplet
from grounddesk.scenegen import Scene, SceneObject
from grounddesk.targets import (CaptionItem, Query, TargetConfig, assemble_query,
                                build_alignment_target, build_detection_target,
                                make_detection_query)

POSITIVE = "an avocado lying on a cutting board"
# tokens: an(0) avocado(1) lying(2) on(3) a(4) cutting(5) board(6)
SUBJ_SPAN = (0, 2)
BOARD_SPAN = (4, 7)


def make_pool():
    texts = [POSITIVE,
             "a ripe avocado inside a white bowl",
             "a green avocado near a small knife",
             "a halved avocado on a wooden table"]
    pool = [ObjectDescription(i, 3, t, i, "procedural") for i, t in enumerate(texts)]
    pool.append(ObjectDescription(4, 1, "a black dog with a ball", 4, "procedural"))
    return pool


def make_triplet():
    return PseudoTriplet(scene_id=0, description=POSITIVE,
                         assignments=((0, SUBJ_SPAN), (1, BOARD_SPAN)),
                         provenance="weak_to_strong")


def test_assemble_counts_and_kinds():
    query = assemble_query(make_triplet(), make_pool(), k_neg=1, include_struct_pos=True, seed=0)
    kinds = sorted(item.kind for item in query.items)
    assert kinds == ["intra_class_negative", "positive_description", "structural_positive"]
    struct = next(i for i in query.items if i.kind == "structural_positive")
    assert struct.tokens == ("a", "cutting", "board")
    assert struct.source_span == BOARD_SPAN


def test_assemble_bare_query():
    query = assemble_query(make_triplet(), make_pool(), k_neg=0, include_struct_pos=False, seed=0)
    assert len(query.items) == 1
    assert query.tokens == tuple(POSITIVE.split())


def test_assemble_negatives_share_category_and_differ(desk20):
    pool = make_pool()
    for seed in range(1000):
        query = assemble_query(make_triplet(), pool, k_neg=2, include_struct_pos=False, seed=seed)
        negs = [i for i in query.items if i.kind == "intra_class_negative"]
        assert len(negs) == 2
        texts = {" ".join(i.tokens) for i in negs}
        assert POSITIVE not in texts
        assert len(texts) == 2
        assert all(i.source_description_id in (1, 2, 3) for i in negs)


def test_assemble_requires_enough_pool():
    with pytest.raises(ValueError, match="same-category"):
        assemble_query(make_triplet(), make_pool(), k_neg=5, include_struct_pos=False, seed=0)
    with pytest.raises(ValueError, match="not found"):
        assemble_query(PseudoTriplet(0, "a missing description", (), "weak_to_strong"),
                       make_pool(), k_neg=0, include_struct_pos=False, seed=0)


def test_assemble_deterministic_and_seed_sensitive():
    pool = make_pool()
    q1 = assemble_query(make_triplet(), pool, 2, True, seed=0)
    q2 = assemble_query(make_triplet(), pool, 2, True, seed=0)
    assert q1.tokens == q2.tokens
    orders = {assemble_query(make_triplet(), pool, 2, True, seed=s).tokens
              for s in range(20)}
    assert len(orders) > 1


def caption_columns(query):
    return {c for i in range(len(query.items)) for c in query.item_columns(i)}


def test_separators_between_items():
    query = assemble_query(make_triplet(), make_pool(), 1, True, seed=0)
    seps = [i for i in range(query.m) if i not in caption_columns(query)]
    assert len(seps) == len(query.items) - 1
    assert all(query.tokens[i] == "." for i in seps)
    # each caption's columns hold its tokens
    for i, item in enumerate(query.items):
        assert tuple(query.tokens[c] for c in query.item_columns(i)) == item.tokens


def fig5_query():
    items = (
        CaptionItem(tuple(POSITIVE.split()), "positive_description", 0),
        CaptionItem(tuple("an avocado spread on a toasted bagel".split()),
                    "intra_class_negative", 1),
        CaptionItem(("a", "cutting", "board"), "structural_positive", 0,
                    source_span=BOARD_SPAN),
    )
    return Query(items=items)


def test_alignment_target_fig5_layout():
    query = fig5_query()
    target = build_alignment_target(query, make_triplet(), n_regions=2)
    t = target.matrix
    assert t.shape == (2, query.m)
    pos_cols = list(query.item_columns(0))
    neg_cols = list(query.item_columns(1))
    struct_cols = list(query.item_columns(2))
    sep_cols = [c for c in range(query.m) if c not in caption_columns(query)]

    # subject box: the entire positive sentence, nothing else
    assert t[0, pos_cols].tolist() == [1.0] * 7
    assert t[0, neg_cols].sum() == 0
    assert t[0, struct_cols].sum() == 0
    # board box: only the standalone phrase, suppressed inside the sentence
    board_in_sentence = [pos_cols[0] + i for i in range(*BOARD_SPAN)]
    assert t[1, struct_cols].tolist() == [1.0] * 3
    assert t[1, board_in_sentence] .sum() == 0
    assert t[1].sum() == 3.0
    # separators are never targets
    assert sep_cols == [7, 15]
    assert t[:, sep_cols].sum() == 0


def test_alignment_single_phrase_no_negatives():
    desc = "a green avocado"
    triplet = PseudoTriplet(0, desc, ((0, (0, 3)),), "weak_to_strong")
    query = Query(items=(CaptionItem(tuple(desc.split()), "positive_description", 0),))
    target = build_alignment_target(query, triplet, n_regions=3)
    assert target.matrix[0].tolist() == [1.0, 1.0, 1.0]
    assert target.matrix[1:].sum() == 0


def test_phrase_level_mode_keeps_nonsubject_positive():
    query = fig5_query()
    config = TargetConfig(sentence_level_positive=False, structural_negative=False)
    target = build_alignment_target(query, make_triplet(), 2, config=config)
    pos_cols = list(query.item_columns(0))
    subj_cols = [pos_cols[0] + i for i in range(*SUBJ_SPAN)]
    board_cols = [pos_cols[0] + i for i in range(*BOARD_SPAN)]
    assert target.matrix[0, subj_cols].tolist() == [1.0, 1.0]
    assert target.matrix[0].sum() == 2.0  # subject span only
    assert target.matrix[1, board_cols].tolist() == [1.0, 1.0, 1.0]


def test_sentence_positive_exclusion_variant():
    query = fig5_query()
    config = TargetConfig(sentence_positive_covers_nonsubject=False)
    target = build_alignment_target(query, make_triplet(), 2, config=config)
    pos_cols = list(query.item_columns(0))
    board_cols = [pos_cols[0] + i for i in range(*BOARD_SPAN)]
    assert target.matrix[0, board_cols].sum() == 0
    kept = [c for c in pos_cols if c not in board_cols]
    assert target.matrix[0, kept].tolist() == [1.0] * 4


def test_role_discrimination_property(default_bundle, default_triplets):
    checked = 0
    for triplet in default_triplets:
        if len([s for _i, s in triplet.assignments]) < 2:
            continue
        query = assemble_query(triplet, default_bundle.descriptions, 2, True, seed=1,
                               lexicon=default_bundle.lexicon)
        n = default_bundle.features[triplet.scene_id].features.shape[0]
        target = build_alignment_target(query, triplet, n, lexicon=default_bundle.lexicon)
        pos_idx = next(i for i, it in enumerate(query.items)
                       if it.kind == "positive_description")
        pos_off = query.item_offsets[pos_idx]
        from grounddesk.langparse import parse
        tree = parse(triplet.description, default_bundle.lexicon)
        subj_span = (tree.subject.start_token, tree.subject.end_token)
        subject_boxes = {b for b, span in triplet.assignments if span == subj_span}
        for i, item in enumerate(query.items):
            if item.kind != "structural_positive":
                continue
            boxes = [b for b, span in triplet.assignments if span == item.source_span]
            for b in boxes:
                inside = [pos_off + k for k in range(*item.source_span)]
                standalone = list(query.item_columns(i))
                assert target.matrix[b, inside].sum() == 0
                if b in subject_boxes:
                    # a box assigned to both roles resolves subject-first
                    assert target.matrix[b, standalone].sum() == 0
                else:
                    assert target.matrix[b, standalone].min() == 1.0
                    checked += 1
        for i, item in enumerate(query.items):
            if item.kind == "intra_class_negative":
                assert target.matrix[:, list(query.item_columns(i))].sum() == 0
        if checked >= 25:
            break
    assert checked >= 25


def test_shuffle_permutes_columns_consistently():
    pool = make_pool()
    triplet = make_triplet()
    qa = assemble_query(triplet, pool, 2, True, seed=3)
    perm = [2, 0, 3, 1]
    qb = Query(items=tuple(qa.items[i] for i in perm))
    assert qa.tokens != qb.tokens  # same items, different order
    ta = build_alignment_target(qa, triplet, 4)
    tb = build_alignment_target(qb, triplet, 4)
    for item_b, item_a in enumerate(perm):
        for within in range(len(qa.items[item_a].tokens)):
            col_a = qa.item_offsets[item_a] + within
            col_b = qb.item_offsets[item_b] + within
            assert np.array_equal(ta.matrix[:, col_a], tb.matrix[:, col_b])


def test_alignment_errors():
    query = fig5_query()
    bad_span = PseudoTriplet(0, POSITIVE, ((0, (1, 3)),), "weak_to_strong")
    with pytest.raises(ValueError, match="matches no phrase"):
        build_alignment_target(query, bad_span, 2)
    for index in (2, 9, -1):
        bad_index = PseudoTriplet(0, POSITIVE, ((index, SUBJ_SPAN),), "weak_to_strong")
        with pytest.raises(ValueError, match=f"proposal {index} out of range"):
            build_alignment_target(query, bad_index, 2)


def test_detection_target_two_categories():
    query = make_detection_query(["avocado", "cutting board"])
    objs = (SceneObject(0, "avocado", frozenset(), (0.1, 0.1, 0.2, 0.2)),
            SceneObject(1, "cutting board", frozenset(), (0.1, 0.4, 0.3, 0.1)))
    scene = Scene(0, 0, 0, objs, frozenset({0}), ())
    target = build_detection_target(query, scene, n_regions=4)
    avocado_cols = list(query.item_columns(0))
    board_cols = list(query.item_columns(1))
    assert target.matrix[0, avocado_cols].tolist() == [1.0]
    assert target.matrix[0, board_cols].sum() == 0
    assert target.matrix[1, board_cols].tolist() == [1.0, 1.0]
    assert target.matrix[2:].sum() == 0


def test_example_serialization_roundtrip():
    query = fig5_query()
    triplet = make_triplet()
    target = build_alignment_target(query, triplet, 3)
    row = targets.example_to_json(7, query, target)
    assert set(row) == {"scene_id", "captions", "n_regions", "target"}
    assert row["captions"] == [[item.kind, list(item.tokens)] for item in query.items]
    assert len(row["target"]) == 3 * query.m
    scene_id, query2, target2 = targets.example_from_json(row)
    assert scene_id == 7
    assert query2.tokens == query.tokens
    assert query2.item_offsets == query.item_offsets
    assert [i.kind for i in query2.items] == [i.kind for i in query.items]
    assert np.array_equal(target2.matrix, target.matrix)


@pytest.mark.parametrize("captions,message", [
    ([["caption", ["a", "dog"]]], "unknown caption kind 'caption'"),
    ([["positive_description", []]], "not a non-empty token list"),
    ([["positive_description", "a dog"]], "not a non-empty token list"),
])
def test_example_with_an_unusable_caption_is_rejected(captions, message):
    row = {"scene_id": 0, "captions": captions, "n_regions": 1, "target": "00"}
    with pytest.raises(ValueError, match=message):
        targets.example_from_json(row)


# The encoding before the codec was vectorised, kept here to pin its bytes.
def old_encoding(matrix):
    return "".join(str(int(v)) for v in matrix.reshape(-1))


def query_of_width(m):
    return Query(items=(CaptionItem(tuple(f"w{j}" for j in range(m)), "detection_category"),))


binary_matrices = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
                         elements=st.sampled_from([0.0, 1.0]))


@settings(max_examples=200, deadline=None)
@given(binary_matrices)
@example(np.ones((1, 1)))
@example(np.zeros((1, 9)))
@example(np.ones((9, 1)))
def test_example_codec_roundtrip_keeps_the_old_bytes(matrix):
    n, m = matrix.shape
    row = targets.example_to_json(0, query_of_width(m), targets.AlignmentTarget(matrix=matrix))
    assert row["target"] == old_encoding(matrix)
    _, query, decoded = targets.example_from_json(row)
    assert query.m == m
    assert decoded.matrix.dtype == np.float64 and decoded.matrix.shape == (n, m)
    assert np.array_equal(decoded.matrix, matrix)


@pytest.mark.parametrize("value", [2.0, 0.5, -1.0, np.nan])
def test_example_codec_rejects_non_binary_matrices(value):
    bad = np.zeros((2, 3))
    bad[1, 2] = value
    with pytest.raises(ValueError, match="target matrix is not binary"):
        targets.example_to_json(0, query_of_width(3), targets.AlignmentTarget(matrix=bad))


def two_by_three_row():
    target = targets.AlignmentTarget(matrix=np.zeros((2, 3)))
    return targets.example_to_json(0, query_of_width(3), target)


@pytest.mark.parametrize("field", ["target"])
@pytest.mark.parametrize("text", ["010012", "01001x", "01001 ", "01001\u00e9", "01001/"])
def test_example_codec_rejects_bad_characters(field, text):
    row = two_by_three_row()
    row[field] = text
    with pytest.raises(ValueError, match=f"{field} string holds a character other than 0/1"):
        targets.example_from_json(row)


@pytest.mark.parametrize("field", ["target"])
@pytest.mark.parametrize("text", ["", "01001", "0100110"])
def test_example_codec_rejects_wrong_lengths(field, text):
    row = two_by_three_row()
    row[field] = text
    with pytest.raises(ValueError, match=f"{field} string has {len(text)} cells, expected 2 x 3"):
        targets.example_from_json(row)
