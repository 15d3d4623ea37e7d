"""groundnet's forward, loss_and_grad and train against groundnet_reference,
the step before the flat gradient buffer: every output equal bit for bit.
The reference reads an N x M loss mask from its target; it is fed the
separator mask broadcast over the rows, which is what loss_and_grad derives
from the query."""

import copy
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groundnet_reference as reference
from grounddesk.groundnet import (GroundingModel, TrainConfig, TrainExample, Vocabulary,
                                  compile_query, forward, loss_and_grad, train)
from grounddesk.targets import AlignmentTarget, CaptionItem, Query

WORDS = ["a", "an", "the", "green", "red", "ripe", "avocado", "cutting", "board",
         "dog", "on", "near", "bowl", "table"]
KINDS = ("positive_description", "intra_class_negative", "structural_positive")


def _bytes_equal(a, b) -> bool:
    """Equal shape, dtype and bytes: -0.0 and 0.0 differ, as in a checkpoint."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _query(captions) -> Query:
    return Query(items=tuple(CaptionItem(tuple(tokens), KINDS[k % len(KINDS)])
                             for k, tokens in enumerate(captions)))


def _target(rng, n, query, density) -> AlignmentTarget:
    return AlignmentTarget((rng.random((n, query.m)) < density).astype(float))


def _reference_target(query, target):
    """The target as the reference reads it: the matrix, and as loss_mask
    the separator mask, one row of 1 on caption columns and 0 on separators
    broadcast over the regions."""
    row = np.zeros(query.m)
    for i in range(len(query.items)):
        row[list(query.item_columns(i))] = 1.0
    return SimpleNamespace(matrix=target.matrix,
                           loss_mask=np.broadcast_to(row, target.matrix.shape))


def _reference_examples(examples):
    return [dataclasses.replace(ex, target=_reference_target(ex.query, ex.target))
            for ex in examples]


def _model(rng, d_in, d_model, max_positions, scale, vocab_words=WORDS) -> GroundingModel:
    model = GroundingModel(Vocabulary.build(vocab_words), d_in=d_in, d_model=d_model,
                           max_positions=max_positions, seed=0)
    for name, value in model.params.items():
        model.params[name] = rng.normal(0.0, scale, value.shape)
    return model


@st.composite
def step_cases(draw):
    captions = draw(st.lists(st.lists(st.sampled_from(WORDS + ["zebra"]), min_size=1,
                                      max_size=9), min_size=1, max_size=4))
    return dict(captions=captions, d_in=draw(st.integers(1, 10)),
                d_model=draw(st.integers(1, 12)), max_positions=draw(st.integers(1, 10)),
                n_regions=draw(st.integers(1, 6)),
                scale=draw(st.sampled_from([0.0, 0.05, 0.5, 3.0, 40.0])),
                density=draw(st.sampled_from([0.0, 0.3, 1.0])),
                seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(step_cases())
def test_step_equals_the_reference_bit_for_bit(case):
    """S, the loss and every gradient block, over queries (repeated, unknown
    and clipped-position tokens), features, parameters from zero to
    saturating, and targets."""
    rng = np.random.default_rng(case["seed"])
    model = _model(rng, case["d_in"], case["d_model"], case["max_positions"], case["scale"])
    query = _query(case["captions"])
    feats = rng.normal(0.0, 1.0 + case["scale"], (case["n_regions"], case["d_in"]))
    target = _target(rng, case["n_regions"], query, case["density"])
    for q, ref_q in ((query, query),
                     (compile_query(model, query), reference.compile_query(model, query))):
        expected = reference.forward(model, feats, ref_q)
        got = forward(model, feats, q)
        assert _bytes_equal(got.S, expected.S)
        assert _bytes_equal(got.token_features, expected.cache["H"])
        report, grads = loss_and_grad(model, got, target)
        ref_report, ref_grads = reference.loss_and_grad(model, expected,
                                                        _reference_target(query, target))
        assert _bytes_equal(report.grounding_loss, ref_report.grounding_loss)
        assert grads.keys() == ref_grads.keys()
        for name in ref_grads:
            assert _bytes_equal(grads[name], ref_grads[name]), name
            assert np.shares_memory(grads[name], grads.flat), name
        assert grads.flat.size == sum(block.size for block in grads.values())


def test_loss_and_grad_twice_on_one_forward_is_the_same():
    """loss_and_grad leaves the forward cache as it found it."""
    rng = np.random.default_rng(5)
    model = _model(rng, 4, 6, 8, 0.5)
    query = _query([["a", "red", "dog"], ["the", "bowl"]])
    scores = forward(model, rng.normal(0, 1, (3, 4)), query)
    target = _target(rng, 3, query, 0.3)
    first = loss_and_grad(model, scores, target)[1]
    second = loss_and_grad(model, scores, target)[1]
    assert _bytes_equal(first.flat, second.flat)
    assert not np.shares_memory(first.flat, second.flat)


def _examples(seed, n, d_in):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        captions = [list(rng.choice(WORDS + ["zebra"], size=rng.integers(1, 8)))
                    for _ in range(rng.integers(1, 4))]
        query = _query(captions)
        n_regions = int(rng.integers(1, 6))
        out.append(TrainExample(features=rng.normal(0, 1, (n_regions, d_in)), query=query,
                                target=_target(rng, n_regions, query, 0.3),
                                scene_id=k))
    return out


TRIPLETS = _examples(1, 10, 5)
DETECTIONS = _examples(2, 3, 5)

# Ten triplets and three detection examples in batches of 4: the detection
# batches and every batch of the ratio-1 run are shorter than batch_size, and
# the triplet schedule wraps into a new permutation mid-epoch.
TRAIN_CASES = {
    "ratio_0": dict(detection_mix_ratio=0.0),
    "ratio_0.25": dict(detection_mix_ratio=0.25),
    "ratio_1": dict(detection_mix_ratio=1.0),
    "freeze_visual": dict(freeze_visual=True),
    "freeze_language": dict(freeze_language=True, detection_mix_ratio=0.25),
    "freeze_fusion": dict(freeze_fusion=True),
    "freeze_all": dict(freeze_visual=True, freeze_language=True, freeze_fusion=True),
    "no_momentum": dict(momentum=0.0, learning_rate=0.5),
    "batch_of_one": dict(batch_size=1, epochs=2),
    "batch_past_the_corpus": dict(batch_size=16, detection_mix_ratio=0.25),
}


@pytest.mark.parametrize("case", list(TRAIN_CASES))
def test_train_equals_the_reference_bit_for_bit(case):
    config = TrainConfig(**{"epochs": 4, "batch_size": 4, "seed": 3, **TRAIN_CASES[case]})
    model = _model(np.random.default_rng(4), 5, 6, 5, 0.3)
    expected_model, expected_history = reference.train(
        copy.deepcopy(model), _reference_examples(TRIPLETS), _reference_examples(DETECTIONS),
        config)
    trained, history = train(model, TRIPLETS, DETECTIONS, config)
    assert history == expected_history
    assert trained.params.keys() == expected_model.params.keys()
    for name, value in expected_model.params.items():
        assert _bytes_equal(trained.params[name], value), name


def test_train_updates_the_parameter_arrays_in_place():
    """The arrays in model.params before train() are the ones that hold the
    trained values; frozen or not, none is replaced."""
    config = TrainConfig(epochs=3, batch_size=4, seed=1, freeze_fusion=True)
    model = _model(np.random.default_rng(6), 5, 6, 5, 0.3)
    arrays = dict(model.params)
    expected_model, _ = reference.train(copy.deepcopy(model), _reference_examples(TRIPLETS),
                                        _reference_examples(DETECTIONS), config)
    trained, _ = train(model, TRIPLETS, DETECTIONS, config)
    assert trained is model
    for name, array in arrays.items():
        assert model.params[name] is array, name
        assert _bytes_equal(array, expected_model.params[name]), name
