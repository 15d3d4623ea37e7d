import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grounddesk import groundnet, pipeline, targets
from grounddesk.groundnet import (GroundingDetector, GroundingModel, NumericError,
                                  TrainConfig, TrainExample, Vocabulary, alignment_loss,
                                  compile_query, forward, load_checkpoint, load_history,
                                  loss_and_grad, predict, save_checkpoint, save_history,
                                  sigmoid, train)
from grounddesk.targets import AlignmentTarget, CaptionItem, Query

WORDS = ["a", "an", "the", "green", "red", "ripe", "avocado", "cutting", "board",
         "dog", "on", "near", "bowl", "table"]


def small_model(seed=0, d_in=12, d_model=6):
    return GroundingModel(Vocabulary.build(WORDS), d_in=d_in, d_model=d_model,
                          max_positions=16, seed=seed)


def small_query():
    return Query(items=(
        CaptionItem(("a", "green", "avocado", "on", "a", "cutting", "board"),
                    "positive_description"),
        CaptionItem(("a", "red", "dog"), "intra_class_negative"),
        CaptionItem(("a", "cutting", "board"), "structural_positive"),
    ))


def random_target(rng, n, query):
    t = (rng.random((n, query.m)) < 0.4).astype(float)
    mask = np.ones((n, query.m))
    return t, mask


def test_zeroed_model_scores_zero():
    model = small_model()
    model.params["text.embeddings"][:] = 0.0
    query = small_query()
    scores = forward(model, np.ones((3, 12)), query)
    assert np.array_equal(scores.S, np.zeros((3, query.m)))


def test_single_pair_is_scalar_dot():
    model = small_model(seed=3)
    rng = np.random.default_rng(0)
    for k in model.params:
        model.params[k] = rng.normal(0, 0.4, model.params[k].shape)
    feats = rng.normal(0, 1, (1, 12))
    query = Query(items=(CaptionItem(("avocado",), "positive_description"),))
    scores = forward(model, feats, query)
    assert scores.S.shape == (1, 1)
    o = feats @ model.params["visual.weight"] + model.params["visual.bias"]
    h = scores.token_features
    expected = model.params["logit_scale"][0, 0] * float((o @ h.T)[0, 0])
    assert scores.S[0, 0] == pytest.approx(expected)


def test_feature_width_mismatch():
    model = small_model()
    with pytest.raises(ValueError, match="feature width"):
        forward(model, np.ones((2, 5)), small_query())


def test_loss_at_zero_scores_is_ln2():
    query = small_query()
    n = 4
    mask = np.ones((n, query.m))
    target = AlignmentTarget(np.zeros((n, query.m)), mask)
    assert alignment_loss(np.zeros((n, query.m)), target) == pytest.approx(np.log(2))
    target1 = AlignmentTarget(np.ones((n, query.m)), mask)
    assert alignment_loss(np.zeros((n, query.m)), target1) == pytest.approx(np.log(2))


def test_saturated_scores_reach_tiny_loss():
    rng = np.random.default_rng(5)
    t = (rng.random((3, 9)) < 0.5).astype(float)
    target = AlignmentTarget(t, np.ones_like(t))
    s = 20.0 * (2.0 * t - 1.0)
    assert alignment_loss(s, target) < 1e-3


def test_empty_mask_rejected():
    t = np.zeros((2, 3))
    target = AlignmentTarget(t, np.zeros_like(t))
    with pytest.raises(ValueError, match="mask"):
        alignment_loss(np.zeros((2, 3)), target)


@pytest.mark.parametrize("seed", range(3))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    model = small_model(seed=seed)
    for k in model.params:
        model.params[k] = rng.normal(0, 0.5, model.params[k].shape)
    model.params["logit_scale"] = np.array([[rng.uniform(0.5, 2.0)]])
    query = small_query()
    feats = rng.normal(0, 1, (4, 12))
    t = (rng.random((4, query.m)) < 0.4).astype(float)
    mask = np.ones((4, query.m))
    mask[:, [c for c in range(query.m) if c not in query.token_map]] = 0
    target = AlignmentTarget(t, mask)
    _, grads = loss_and_grad(model, forward(model, feats, query), target)
    eps = 1e-5
    for name, grad in grads.items():
        arr = model.params[name]
        coords = zip(rng.integers(0, arr.shape[0], 5), rng.integers(0, arr.shape[1], 5))
        for i, j in coords:
            i, j = int(i), int(j)
            orig = arr[i, j]
            arr[i, j] = orig + eps
            up = alignment_loss(forward(model, feats, query).S, target)
            arr[i, j] = orig - eps
            down = alignment_loss(forward(model, feats, query).S, target)
            arr[i, j] = orig
            fd = (up - down) / (2 * eps)
            rel = abs(fd - grad[i, j]) / max(abs(fd), abs(grad[i, j]), 1e-8)
            assert rel < 1e-4, f"{name}[{i},{j}]: analytic {grad[i, j]} vs fd {fd}"


def test_context_separates_repeated_tokens_after_one_step():
    model = small_model(seed=1)
    query = small_query()
    rng = np.random.default_rng(0)
    feats = rng.normal(0, 1, (2, 12))
    scores = forward(model, feats, query)
    h = scores.token_features
    # "cutting" inside the sentence vs in the standalone item
    in_sentence = query.item_offsets[0] + 5
    standalone = query.item_offsets[2] + 1
    assert np.allclose(h[in_sentence], h[standalone])  # mixing starts at zero
    t = np.zeros((2, query.m))
    t[0, in_sentence] = 1.0
    target = AlignmentTarget(t, np.ones_like(t))
    example = TrainExample(features=feats, query=query, target=target)
    train(model, [example], [], TrainConfig(epochs=1, batch_size=1, seed=0))
    h2 = forward(model, feats, query).token_features
    assert not np.allclose(h2[in_sentence], h2[standalone])


def tiny_examples(n_examples=16, seed=0):
    rng = np.random.default_rng(seed)
    vocab_words = WORDS
    out = []
    for _ in range(n_examples):
        query = small_query()
        feats = rng.normal(0, 1, (3, 12))
        t = (rng.random((3, query.m)) < 0.3).astype(float)
        mask = np.ones_like(t)
        mask[:, [c for c in range(query.m) if c not in query.token_map]] = 0
        out.append(TrainExample(features=feats, query=query,
                                target=AlignmentTarget(t, mask)))
    return out


def test_training_reduces_loss_and_records_history():
    model = small_model(seed=2, d_model=12)
    examples = tiny_examples(8)
    model, history = train(model, examples, [],
                           TrainConfig(epochs=100, learning_rate=0.3, batch_size=4, seed=0))
    assert len(history) == 100
    assert history[-1][1] < 0.5 * history[0][1]
    assert [row[0] for row in history] == list(range(100))
    assert all(len(row) == 2 for row in history)


@pytest.mark.parametrize("flag,block", [
    ("freeze_visual", "visual"),
    ("freeze_language", "language"),
    ("freeze_fusion", "fusion"),
])
def test_freeze_flags_keep_blocks_bit_identical(flag, block):
    model = small_model(seed=4)
    before = {k: v.tobytes() for k, v in model.params.items()}
    config = TrainConfig(epochs=3, seed=0, **{flag: True})
    train(model, tiny_examples(), [], config)
    frozen_names = groundnet.PARAM_BLOCKS[block]
    for name in frozen_names:
        assert model.params[name].tobytes() == before[name]
    for name in set(model.params) - set(frozen_names):
        assert model.params[name].tobytes() != before[name]


def test_no_freeze_changes_every_block():
    model = small_model(seed=4)
    before = {k: v.tobytes() for k, v in model.params.items()}
    train(model, tiny_examples(), [], TrainConfig(epochs=3, seed=0))
    for name, raw in before.items():
        assert model.params[name].tobytes() != raw


def test_training_is_deterministic():
    runs = []
    for _ in range(2):
        model = small_model(seed=7)
        model, history = train(model, tiny_examples(), [], TrainConfig(epochs=5, seed=3))
        runs.append(({k: v.tobytes() for k, v in model.params.items()}, history))
    assert runs[0] == runs[1]


def test_detection_ratio_one_uses_detections_only():
    model = small_model(seed=1)
    det_examples = tiny_examples(8, seed=9)
    model, history = train(model, [], det_examples,
                           TrainConfig(epochs=2, detection_mix_ratio=1.0, seed=0))
    assert len(history) == 2
    with pytest.raises(ValueError, match="triplet"):
        train(small_model(), [], det_examples, TrainConfig(detection_mix_ratio=0.5))
    with pytest.raises(ValueError, match="detection"):
        train(small_model(), tiny_examples(4), [], TrainConfig(detection_mix_ratio=0.5))


def test_divergent_training_raises_numeric_error():
    model = small_model(seed=2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="epoch"):
            train(model, tiny_examples(), [],
                  TrainConfig(epochs=30, learning_rate=1e12, seed=0))


def test_predict_untrained_zero_model_scores_half():
    model = small_model()
    for k in model.params:
        model.params[k][:] = 0.0
    feats = np.ones((3, 12))
    dets = predict(model, feats, "a green avocado", score_threshold=0.0)
    assert [d.score for d in dets] == [0.5, 0.5, 0.5]
    assert predict(model, feats, "a green avocado", score_threshold=1.0) == []


def test_predict_empty_query_fails():
    model = small_model()
    with pytest.raises(Exception):
        predict(model, np.ones((2, 12)), "")


def _randomized_model(seed):
    model = small_model(seed=seed)
    rng = np.random.default_rng(seed)
    for k in model.params:
        model.params[k] = rng.normal(0, 0.5, model.params[k].shape)
    return model


@pytest.mark.parametrize("span,agg", [("caption", "max"), ("caption", "mean"),
                                      ("subject", "max")])
def test_predict_grouped_ranks_each_label_by_score_then_index(span, agg):
    """Each label's regions above the threshold, from its own columns of one
    forward pass, highest score first and lower index first on ties."""
    texts = ["a green avocado on the table", "the red dog", "a bowl near a cutting board"]
    trees = [groundnet.parse(t) for t in texts]
    feats = np.random.default_rng(4).normal(0, 1, (9, 12))
    zero = small_model()
    for k in zero.params:
        zero.params[k][:] = 0.0
    for model in (_randomized_model(5), zero):  # every region ties under the zero model
        query = Query(items=tuple(CaptionItem(tuple(t.tokens), "positive_description")
                                  for t in trees))
        sig = sigmoid(forward(model, feats, query).S)
        got = groundnet.predict_grouped(model, feats, texts, score_threshold=0.45,
                                        span=span, agg=agg)
        assert len(got) == len(texts)
        for idx, (tree, (indices, scores)) in enumerate(zip(trees, got)):
            off = query.item_offsets[idx]
            cols = (list(range(off + tree.subject.start_token, off + tree.subject.end_token))
                    if span == "subject" else list(query.item_columns(idx)))
            block = sig[:, cols]
            per_region = block.mean(axis=1) if agg == "mean" else block.max(axis=1)
            want = sorted((i for i in range(len(per_region)) if per_region[i] > 0.45),
                          key=lambda i: (-per_region[i], i))
            assert indices.tolist() == want
            assert scores.tolist() == [float(per_region[i]) for i in want]


def test_predict_grouped_takes_a_compiled_prompt():
    model = _randomized_model(6)
    feats = np.random.default_rng(7).normal(0, 1, (5, 12))
    texts = ["the red dog", "a green avocado"]
    prompt = groundnet.compile_prompt(model, [groundnet.parse(t) for t in texts], "subject")
    by_text = groundnet.predict_grouped(model, feats, texts, 0.0, span="subject")
    by_prompt = groundnet.predict_grouped(model, feats, prompt, 0.0)
    for (i_a, s_a), (i_b, s_b) in zip(by_text, by_prompt):
        assert np.array_equal(i_a, i_b) and np.array_equal(s_a, s_b)


def test_predict_grouped_rejects_unknown_aggregation():
    with pytest.raises(ValueError, match="avg"):
        groundnet.predict_grouped(small_model(), np.ones((2, 12)), ["a dog"], agg="avg")


def test_predict_is_the_subject_span_of_predict_grouped():
    model = _randomized_model(8)
    feats = np.random.default_rng(9).normal(0, 1, (6, 12))
    text = "a ripe avocado on a cutting board"
    dets = predict(model, feats, text, score_threshold=0.3)
    [(indices, scores)] = groundnet.predict_grouped(model, feats, [text], 0.3, span="subject")
    assert [d.proposal_index for d in dets] == indices.tolist()
    assert [d.score for d in dets] == scores.tolist()
    assert all(d.box == (0.0, 0.0, 1.0, 1.0) and d.query_text == text for d in dets)


def test_grounding_detector_adapts_model(default_bundle):
    vocab = pipeline.build_vocabulary(default_bundle.pool)
    model = GroundingModel(vocab, d_in=64, d_model=8, seed=0)
    rf = default_bundle.features[0]
    detector = GroundingDetector(model, lexicon=default_bundle.lexicon)
    dets = detector.detect(rf, "an avocado")
    assert len(dets) == rf.features.shape[0]
    assert all(0.0 <= d.score <= 1.0 for d in dets)


def test_checkpoint_roundtrip(tmp_path):
    model = small_model(seed=11)
    rng = np.random.default_rng(2)
    for k in model.params:
        model.params[k] = rng.normal(0, 1, model.params[k].shape)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    assert raw[:4] == b"WSCL"
    loaded = load_checkpoint(path, model.vocabulary)
    assert set(loaded.params) == set(model.params)
    for k in model.params:
        assert np.array_equal(loaded.params[k], model.params[k])
    assert (loaded.d_in, loaded.d_model) == (model.d_in, model.d_model)
    wrong_vocab = Vocabulary.build(["just", "two"])
    with pytest.raises(ValueError, match="vocabulary"):
        load_checkpoint(path, wrong_vocab)


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"JUNKxxxx")
    with pytest.raises(ValueError, match="not a model checkpoint"):
        load_checkpoint(path, small_model().vocabulary)


def test_history_roundtrip(tmp_path):
    history = [(0, 0.7), (1, 0.35001)]
    path = tmp_path / "history.csv"
    save_history(path, history)
    text = path.read_text()
    assert text.splitlines()[0] == "epoch,grounding_loss"
    assert load_history(path) == history
    old = tmp_path / "old_history.csv"
    old.write_text("epoch,grounding_loss,total\n0,0.7,0.7\n1,0.35001,0.35001\n")
    assert load_history(old) == history


def test_sigmoid_stability():
    x = np.array([-800.0, 0.0, 800.0])
    s = sigmoid(x)
    assert s[0] == 0.0 and s[1] == 0.5 and s[2] == 1.0


def test_sigmoid_matches_the_two_branch_formula_bit_for_bit():
    rng = np.random.default_rng(0)
    x = np.concatenate([[0.0, -0.0, 1e3, -1e3, 40.0, -40.0],
                        rng.normal(0, 5, 500), rng.normal(0, 300, 500)])
    with np.errstate(all="raise"):
        got = sigmoid(x)
    expected = np.empty_like(x)
    pos = x >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    with np.errstate(under="ignore"):
        ex = np.exp(x[~pos])
    expected[~pos] = ex / (1.0 + ex)
    assert got.tobytes() == expected.tobytes()
    assert got[0] == got[1] == 0.5


def _reference_step(model, feats, query, target):
    """forward + loss_and_grad as a plain np.add.at scatter computes them."""
    p, d = model.params, model.d_model
    o = feats @ p["visual.weight"] + p["visual.bias"]
    tok = model.vocabulary.ids(query.tokens)
    seg, within = groundnet._segments(query)
    pos = np.minimum(within, model.max_positions - 1)
    e = p["text.embeddings"][tok]
    c = e + p["text.positions"][pos]
    n_seg = int(seg.max()) + 1
    seg_sum = np.zeros((n_seg, d))
    np.add.at(seg_sum, seg, c)
    count = np.bincount(seg, minlength=n_seg).astype(float)
    mean_rows = (seg_sum / count[:, None])[seg]
    c_prev = np.vstack([np.zeros((1, d)), c[:-1]])
    h = e + mean_rows @ p["mix.global"].T + c @ p["mix.self"].T + c_prev @ p["mix.prev"].T
    a = o @ h.T
    s = p["logit_scale"][0, 0] * a
    mask, t = target.loss_mask, target.matrix
    g = mask * (sigmoid(s) - t) / mask.sum()
    d_raw = p["logit_scale"][0, 0] * g
    d_o, d_h = d_raw @ h, d_raw.T @ o
    d_seg = np.zeros((n_seg, d))
    np.add.at(d_seg, seg, d_h @ p["mix.global"])
    d_c = d_h @ p["mix.self"]
    d_c[:-1] += (d_h @ p["mix.prev"])[1:]
    d_c += (d_seg / count[:, None])[seg]
    grads = {"logit_scale": np.array([[float((g * a).sum())]]),
             "visual.weight": feats.T @ d_o, "visual.bias": d_o.sum(axis=0, keepdims=True),
             "mix.global": d_h.T @ mean_rows, "mix.self": d_h.T @ c,
             "mix.prev": d_h.T @ c_prev,
             "text.embeddings": np.zeros_like(p["text.embeddings"]),
             "text.positions": np.zeros_like(p["text.positions"])}
    np.add.at(grads["text.embeddings"], tok, d_h + d_c)
    np.add.at(grads["text.positions"], pos, d_c)
    return s, grads


def _randomized(model, seed):
    rng = np.random.default_rng(seed)
    for k in model.params:
        model.params[k] = rng.normal(0, 0.5, model.params[k].shape)
    return model


def _bundle_examples(bundle, triplets):
    trip = pipeline.build_training_examples(bundle, triplets[:12])
    det = pipeline.build_detection_examples(bundle)[:12]
    assert trip and det
    return trip + det


def _edge_queries():
    """Repeated tokens, unknown tokens, one caption, and captions longer
    than max_positions (16 in small_model)."""
    long = tuple(WORDS[i % len(WORDS)] for i in range(23))
    return [Query(items=(CaptionItem(("a", "a", "dog", "dog", "a"), "positive_description"),)),
            Query(items=(CaptionItem(long, "positive_description"),
                         CaptionItem(("zebra", "the", "zebra"), "intra_class_negative"),
                         CaptionItem(long[:18], "structural_positive"))),
            small_query()]


def _assert_steps_equal(a, b):
    (s_a, g_a), (s_b, g_b) = a, b
    assert np.array_equal(s_a, s_b)
    assert g_a.keys() == g_b.keys()
    for name in g_a:
        assert np.array_equal(g_a[name], g_b[name]), name


def _step(model, feats, query, target):
    scores = forward(model, feats, query)
    return scores.S, loss_and_grad(model, scores, target)[1]


def _assert_paths_agree(model, feats, query, target):
    """A compiled query, the Query itself and the np.add.at reference all
    give the same S and gradients, bit for bit."""
    compiled = compile_query(model, query)
    assert compiled.dtype == np.int32 and compiled.shape == (3, query.m)
    reference = _reference_step(model, feats, query, target)
    _assert_steps_equal(_step(model, feats, compiled, target), reference)
    _assert_steps_equal(_step(model, feats, query, target), reference)


def test_step_paths_agree_on_bundle_examples(default_bundle, default_triplets):
    vocab = pipeline.build_vocabulary(default_bundle.pool)
    model = _randomized(GroundingModel(vocab, d_in=64, d_model=32, seed=0), 1)
    for ex in _bundle_examples(default_bundle, default_triplets):
        _assert_paths_agree(model, ex.features, ex.query, ex.target)


@pytest.mark.parametrize("d_model", [6, 12, 32])
def test_step_paths_agree_on_edge_queries(d_model):
    model = _randomized(small_model(d_model=d_model), 2)
    rng = np.random.default_rng(3)
    for query in _edge_queries():
        feats = rng.normal(0, 1, (4, 12))
        _assert_paths_agree(model, feats, query, AlignmentTarget(*random_target(rng, 4, query)))
    assert compile_query(model, _edge_queries()[1])[1].max() == model.max_positions - 1


@pytest.mark.parametrize("ratio", [0.25, 1.0])
def test_train_calls_forward_and_loss_once_per_scheduled_example(monkeypatch, ratio):
    calls = {"forward": 0, "loss_and_grad": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(groundnet, name, counted(name, getattr(groundnet, name)))
    trip, det = tiny_examples(10), tiny_examples(6, seed=9)
    config = TrainConfig(epochs=3, batch_size=4, detection_mix_ratio=ratio, seed=1)
    train(small_model(), trip, det, config)
    batches = -(-len(det if ratio == 1.0 else trip) // config.batch_size)
    expected = config.epochs * batches * config.batch_size
    assert calls == {"forward": expected, "loss_and_grad": expected}


def _save_altered(tmp_path, **replace):
    """A checkpoint of small_model() with some blocks replaced (None drops
    a block); returns its path and the model's vocabulary."""
    model = small_model()
    for name, arr in replace.items():
        if arr is None:
            del model.params[name]
        else:
            model.params[name] = arr
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    return path, model.vocabulary


@pytest.mark.parametrize("name", sorted(groundnet.PARAM_NAMES))
def test_checkpoint_rejects_a_missing_block(tmp_path, name):
    path, vocab = _save_altered(tmp_path, **{name: None})
    with pytest.raises(ValueError, match=f"model.ckpt.*missing.*{name}"):
        load_checkpoint(path, vocab)


@pytest.mark.parametrize("name,shape", [
    ("visual.bias", (1, 5)), ("visual.bias", (2, 6)), ("text.positions", (16, 5)),
    ("mix.global", (6, 5)), ("mix.prev", (5, 6)), ("mix.self", (7, 7)),
    ("logit_scale", (1, 2)), ("text.embeddings", (len(WORDS) + 2, 5)),
])
def test_checkpoint_rejects_a_mismatched_shape(tmp_path, name, shape):
    path, vocab = _save_altered(tmp_path, **{name: np.zeros(shape)})
    with pytest.raises(ValueError, match=f"model.ckpt.*{name}"):
        load_checkpoint(path, vocab)


def test_checkpoint_rejects_unknown_and_repeated_blocks(tmp_path):
    path, vocab = _save_altered(tmp_path, **{"mix.extra": np.zeros((6, 6))})
    with pytest.raises(ValueError, match="model.ckpt.*mix.extra"):
        load_checkpoint(path, vocab)
    path, vocab = _save_altered(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw + raw[6:])  # every block a second time
    with pytest.raises(ValueError, match="model.ckpt.*repeated"):
        load_checkpoint(path, vocab)


def test_checkpoint_rejects_every_truncation(tmp_path):
    model = small_model(d_model=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="model.ckpt"):
            load_checkpoint(path, model.vocabulary)
    path.write_bytes(raw)
    load_checkpoint(path, model.vocabulary)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=8))
def test_checkpoint_is_an_identity_and_rejects_every_truncation(tmp_path_factory, d_in, d_model,
                                                                positions, seed, values):
    """load_checkpoint(save_checkpoint(m)) gives m's blocks bit for bit, any
    float included, and every proper prefix of the file is rejected naming it."""
    model = GroundingModel(Vocabulary.build(WORDS), d_in=d_in, d_model=d_model,
                           max_positions=positions, seed=seed)
    for k, name in enumerate(sorted(model.params)):
        model.params[name].flat[0] = values[k % len(values)]
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path, model.vocabulary)
    assert (loaded.d_in, loaded.d_model, loaded.max_positions) == (d_in, d_model, positions)
    assert loaded.params.keys() == model.params.keys()
    for name, arr in model.params.items():
        assert loaded.params[name].shape == arr.shape
        assert loaded.params[name].tobytes() == arr.tobytes()
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="model.ckpt"):
            load_checkpoint(path, model.vocabulary)
