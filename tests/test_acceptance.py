"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Heavy fixtures (the full-density corpus, ladder trainings, held-out benchmark)
are shared module-wide. Criterion 1 checks the published metric arithmetic
under the rounding rule of the published tables: every figure is printed to
one decimal place, so each of AP-categ, AP-descr and AP is known only to
within +/-0.05, half a unit in the last printed place. A row passes when some
pair of unrounded sub-metrics that prints as the published (AP-categ,
AP-descr) has a harmonic mean that prints as the published AP.
"""

import math
import time

import numpy as np
import pytest

from grounddesk import cli, corpus, evalkit, groundnet, labeling, pipeline, scenegen, storage
from grounddesk.evalkit import average_precision, harmonic_mean
from grounddesk.groundnet import TrainConfig
from grounddesk.labeling import BowDetector, LabelerConfig, grounding_label, weak_to_strong_label
from grounddesk.langparse import is_absence, parse
from grounddesk.scenegen import BenchmarkConfig
from grounddesk.seeding import derive_seed

from test_evalkit import oracle_ap, random_instance

LADDER_TRAIN = TrainConfig(epochs=30, learning_rate=0.1, momentum=0.9, batch_size=8, seed=0)
HELDOUT = dict(seed=2, n_scenes=120,
               config=BenchmarkConfig(fraction_negative=2 / 3,
                                      nw_choices=(4, 6, 8, 10, 12, 10, 12)))
EVAL = dict(score_threshold=0.6, iou_threshold=0.5, agg="max")


def announce(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def full_bundle():
    return pipeline.build_corpus("desk20", num_descriptions=20, target_length_words=10,
                                 images_per_description=8, seed=0)


@pytest.fixture(scope="module")
def full_triplets(full_bundle):
    return pipeline.label_corpus(full_bundle)


@pytest.fixture(scope="module")
def heldout_benchmark(full_bundle):
    return pipeline.default_benchmark(full_bundle.pool, **HELDOUT)


@pytest.fixture(scope="module")
def ladder_models(full_bundle, full_triplets):
    models = {}
    for name in ("naive", "intra_neg", "struct_pos"):
        variant = next(v for v in pipeline.SIGNAL_LADDER if v.name == name)
        models[name], _ = pipeline.train_variant(full_bundle, full_triplets, variant,
                                                 LADDER_TRAIN)
    return models


@pytest.fixture(scope="module")
def ladder_reports(ladder_models, full_bundle, heldout_benchmark):
    return {name: pipeline.evaluate_model(model, heldout_benchmark,
                                          lexicon=full_bundle.lexicon, **EVAL)
            for name, model in ladder_models.items()}


def printed_span(mean, c, d, half_unit):
    """Range of `mean` over the unrounded pairs that print as (c, d).

    `mean` must increase in both arguments, so the extremes sit at the corners.
    """
    return mean(c - half_unit, d - half_unit), mean(c + half_unit, d + half_unit)


def consistent_with_print(span, published, half_unit):
    """Does `span` meet the rounding interval [published - h, published + h)?"""
    low, high = span
    return low < published + half_unit and high >= published - half_unit


def test_c01_metric_arithmetic():
    """Harmonic-mean reproduction of the published overall APs."""
    started = time.time()
    half_unit = 0.05  # every published figure is printed to one decimal place
    rows = [  # (model, AP-categ, AP-descr, published AP)
        ("GLIP-T", 23.6, 16.4, 19.3),
        ("GLIP-T+synth", 23.9, 24.7, 24.3),
        ("FIBER-B", 30.3, 22.3, 25.7),
        ("FIBER-B+synth", 31.6, 29.5, 30.5),
        ("DesCo-GLIP", 27.4, 21.0, 23.8),
        ("DesCo-GLIP+synth", 27.1, 25.9, 26.5),
        ("DesCo-FIBER", 31.6, 27.3, 29.3),
        ("DesCo-FIBER+synth", 33.1, 30.9, 32.0),
    ]
    failures = []
    for name, c, d, published in rows:
        low, high = printed_span(harmonic_mean, c, d, half_unit)
        ok_row = consistent_with_print((low, high), published, half_unit)
        print(f"  {name:18s} 2cd/(c+d) in [{low:.4f}, {high:.4f}] "
              f"published={published} -> [{published - half_unit:.2f}, "
              f"{published + half_unit:.2f}) {'ok' if ok_row else 'MISS'}")
        if not ok_row:
            failures.append(f"{name} [{low:.4f}, {high:.4f}] vs {published}")

    # Negative controls: the same check must reject the wrong means.
    wrong_means = {"(c+d)/2": lambda a, b: (a + b) / 2,
                   "sqrt(cd)": lambda a, b: math.sqrt(a * b)}
    rejected = {}
    for label, mean in wrong_means.items():
        rejected[label] = [name for name, c, d, published in rows
                           if not consistent_with_print(printed_span(mean, c, d, half_unit),
                                                        published, half_unit)]
        print(f"  control {label:9s} rejected on {len(rejected[label])}/8 rows: "
              f"{', '.join(rejected[label])}")
    blind = [label for label, names in rejected.items() if not names]

    ok = not failures and not blind
    announce("C1 metric arithmetic", ok,
             f"{8 - len(failures)}/8 rows consistent at +/-{half_unit} per printed figure, "
             f"wrong means rejected on "
             f"{', '.join(f'{len(v)}/8' for v in rejected.values())} rows "
             f"in {time.time() - started:.2f}s")
    assert not failures, (f"harmonic mean of the printed inputs cannot print as the published "
                          f"AP on rows: {failures}")
    assert not blind, f"check accepts the wrong mean(s) {blind} on every row"


def test_c02_average_precision_oracle():
    started = time.time()
    rng = np.random.default_rng(20240809)
    worst = 0.0
    for _ in range(1000):
        dets, gts = random_instance(rng, max_dets=20)
        got = average_precision(dets, gts, 0.5)
        want = oracle_ap(dets, gts, 0.5)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            worst = max(worst, abs(got - want))
    elapsed = time.time() - started
    ok = worst <= 1e-9
    announce("C2 AP oracle", ok, f"max |diff|={worst:.2e} over 1000 instances in {elapsed:.1f}s")
    assert ok


def test_c03_gradient_check():
    started = time.time()
    from grounddesk.targets import AlignmentTarget, CaptionItem, Query
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        vocab = groundnet.Vocabulary.build(
            ["a", "an", "green", "red", "ripe", "avocado", "cutting", "board", "dog",
             "on", "near", "bowl"])
        model = groundnet.GroundingModel(vocab, d_in=16, d_model=8, max_positions=24,
                                         seed=seed)
        for k in model.params:
            model.params[k] = rng.normal(0, 0.5, model.params[k].shape)
        model.params["logit_scale"] = np.array([[rng.uniform(0.5, 2.0)]])
        query = Query(items=(
            CaptionItem(("a", "green", "avocado", "on", "a", "cutting", "board"),
                        "positive_description"),
            CaptionItem(("a", "red", "dog"), "intra_class_negative"),
            CaptionItem(("a", "cutting", "board"), "structural_positive"),
        ))
        feats = rng.normal(0, 1, (5, 16))
        target = AlignmentTarget((rng.random((5, query.m)) < 0.4).astype(float))

        def loss():
            scores = groundnet.forward(model, feats, query)
            return groundnet.loss_and_grad(model, scores, target)[0].grounding_loss

        _, grads = groundnet.loss_and_grad(model, groundnet.forward(model, feats, query),
                                           target)
        eps = 1e-5
        for name, grad in grads.items():
            arr = model.params[name]
            for i, j in zip(rng.integers(0, arr.shape[0], 4),
                            rng.integers(0, arr.shape[1], 4)):
                i, j = int(i), int(j)
                orig = arr[i, j]
                arr[i, j] = orig + eps
                up = loss()
                arr[i, j] = orig - eps
                down = loss()
                arr[i, j] = orig
                fd = (up - down) / (2 * eps)
                denom = max(abs(fd), abs(grad[i, j]), 1e-8)
                worst = max(worst, abs(fd - grad[i, j]) / denom)
    elapsed = time.time() - started
    ok = worst < 1e-4
    announce("C3 gradient check", ok, f"max rel err={worst:.2e} over 10 seeds in {elapsed:.1f}s")
    assert ok


@pytest.fixture(scope="module")
def recall_by_threshold(default_bundle):
    detector = BowDetector()
    scenes = [(s, default_bundle.description_by_id(s.description_id).text)
              for s in default_bundle.scenes]
    table = {}
    for p in (0.3, 0.5, 0.7):
        cfg = LabelerConfig(threshold_p=p)
        w2s = np.mean([labeling.label_recall(
            weak_to_strong_label(s, text, detector, cfg, lexicon=default_bundle.lexicon),
            s, lexicon=default_bundle.lexicon) for s, text in scenes])
        base = np.mean([labeling.label_recall(
            grounding_label(s, text, detector, cfg, lexicon=default_bundle.lexicon),
            s, lexicon=default_bundle.lexicon) for s, text in scenes])
        table[p] = (float(w2s), float(base))
    return table


def test_c04_weak_to_strong_dominance(default_bundle, recall_by_threshold):
    started = time.time()
    assert len(default_bundle.scenes) == 200
    w2s, base = recall_by_threshold[0.5]
    margin = w2s - base
    ok = margin >= 0.15
    announce("C4 weak-to-strong dominance", ok,
             f"recall {w2s:.3f} vs {base:.3f}, margin {margin:.3f} >= 0.15, "
             f"{time.time() - started:.1f}s")
    assert ok


def test_c05_threshold_monotonicity(recall_by_threshold):
    started = time.time()
    recalls = [recall_by_threshold[p][0] for p in (0.3, 0.5, 0.7)]
    monotone = recalls[0] >= recalls[1] >= recalls[2]
    drop = recalls[0] - recalls[2]
    ok = monotone and drop >= 0.2
    announce("C5 threshold monotonicity", ok,
             f"recalls {recalls[0]:.3f}/{recalls[1]:.3f}/{recalls[2]:.3f} at p=0.3/0.5/0.7, "
             f"drop {drop:.3f} >= 0.2, {time.time() - started:.1f}s")
    assert ok


def test_c06_compositional_signal_ablation(ladder_reports):
    started = time.time()
    naive = ladder_reports["naive"]
    intra = ladder_reports["intra_neg"]
    struct = ladder_reports["struct_pos"]
    gain_intra = intra.AP_descr - naive.AP_descr
    gain_struct = struct.AP_descr - intra.AP_descr
    gain_long = struct.AP_descr_L - intra.AP_descr_L
    ok = (naive.AP_descr < intra.AP_descr < struct.AP_descr
          and gain_intra >= 3.0 and gain_long >= 2.0)
    announce("C6 compositional signals", ok,
             f"AP_descr {naive.AP_descr:.1f} -> {intra.AP_descr:.1f} -> {struct.AP_descr:.1f} "
             f"(intra +{gain_intra:.1f} >= 3, struct +{gain_struct:.1f} > 0, "
             f"long bucket +{gain_long:.1f} >= 2), {time.time() - started:.1f}s")
    assert ok


def test_c06b_trained_model_ranks_subject_first(ladder_models, full_bundle):
    """After the acceptance training run, the referent box outranks the
    relation-object boxes of its description: corpus-wide, and specifically
    for avocado-on-cutting-board scenes."""
    from grounddesk.langparse import phrase_noun
    model = ladder_models["struct_pos"]
    wins = total = 0
    board_cases = []
    for scene in full_bundle.scenes[::7]:
        desc = full_bundle.description_by_id(scene.description_id)
        tree = parse(desc.text, full_bundle.lexicon)
        if len(tree.phrases) < 2 or not scene.referent_ids:
            continue
        rf = full_bundle.features[scene.scene_id]
        dets = {d.proposal_index: d.score for d in
                groundnet.predict(model, rf, desc.text, score_threshold=-1.0,
                                  lexicon=full_bundle.lexicon)}
        others = [dets[edge[2]] for edge in scene.relation_edges
                  if edge[2] not in scene.referent_ids]
        if not others:
            continue
        total += 1
        referent = max(dets[i] for i in scene.referent_ids)
        wins += referent > max(others)
        if (tree.subject.head_noun == "avocado"
                and any(phrase_noun(tree, p) == "cutting board" for p in tree.phrases[1:])):
            board_cases.append(referent > max(others))
    rate = wins / total
    ok = rate >= 0.95 and board_cases and all(board_cases)
    announce("C6b subject ranking", ok,
             f"referent outranks relation objects on {wins}/{total} scenes "
             f"({len(board_cases)} avocado/cutting-board cases all ranked)")
    assert ok


def test_structural_capacity(ladder_models, full_bundle, heldout_benchmark):
    """Boxes score their phrase higher standalone than embedded in a sentence,
    measured on held-out queries (the learned role discrimination)."""
    from grounddesk.scenegen import phrase_referents
    from grounddesk.targets import CaptionItem, Query
    model = ladder_models["struct_pos"]
    standalone_scores, embedded_scores = [], []
    scenes = {s.scene_id: s for s in heldout_benchmark.scenes}
    for label in heldout_benchmark.description_labels:
        if not label.gt_boxes:
            continue
        tree = parse(label.text, full_bundle.lexicon)
        for phrase in tree.phrases[1:]:
            if phrase.negated:
                continue
            boxes = phrase_referents(scenes[label.scene_id], tree, phrase)
            if not boxes:
                continue
            phrase_tokens = tree.tokens[phrase.start_token:phrase.end_token]
            query = Query(items=(
                CaptionItem(tuple(tree.tokens), "positive_description"),
                CaptionItem(tuple(phrase_tokens), "structural_positive"),
            ))
            rf = heldout_benchmark.features[label.scene_id]
            sig = groundnet.sigmoid(groundnet.forward(model, rf, query).S)
            inside = [query.item_offsets[0] + k
                      for k in range(phrase.start_token, phrase.end_token)]
            alone = list(query.item_columns(1))
            for b in boxes:
                embedded_scores.append(sig[b, inside].mean())
                standalone_scores.append(sig[b, alone].mean())
    mean_alone = float(np.mean(standalone_scores))
    mean_embedded = float(np.mean(embedded_scores))
    ok = mean_alone > mean_embedded
    announce("structural capacity", ok,
             f"standalone {mean_alone:.3f} > embedded {mean_embedded:.3f} "
             f"over {len(standalone_scores)} held-out phrase/box pairs")
    assert ok


def test_c07_freeze_contract(default_bundle, default_triplets):
    started = time.time()
    examples = pipeline.build_training_examples(default_bundle, default_triplets,
                                                pipeline.FULL_VARIANT, seed=0)
    vocab = pipeline.build_vocabulary(default_bundle.pool)
    results = []
    for name in ("none", "visual", "language", "fusion"):
        model = groundnet.GroundingModel(vocab, d_in=64, d_model=32, seed=0)
        before = {k: v.tobytes() for k, v in model.params.items()}
        config = TrainConfig(epochs=5, learning_rate=0.1, seed=0,
                             freeze_visual=name == "visual",
                             freeze_language=name == "language",
                             freeze_fusion=name == "fusion")
        groundnet.train(model, examples, [], config)
        changed = {k for k in model.params if model.params[k].tobytes() != before[k]}
        if name == "none":
            results.append(("none", changed == set(model.params)))
        else:
            frozen = set(groundnet.PARAM_BLOCKS[name])
            results.append((name, not (changed & frozen) and changed == set(model.params) - frozen))
    ok = all(flag for _n, flag in results)
    announce("C7 freeze contract", ok,
             ", ".join(f"{n}:{'ok' if f else 'VIOLATED'}" for n, f in results)
             + f", {time.time() - started:.1f}s")
    assert ok


def test_c08_pipeline_determinism(tmp_path, monkeypatch):
    started = time.time()
    monkeypatch.delenv(cli.OUTPUT_ENV_VAR, raising=False)
    trees = []
    for name in ("first", "second"):
        out = str(tmp_path / name)
        config = cli.load_config(output_dir=out)
        for stage in cli.PIPELINE_STAGES:
            assert cli.run(stage, config) == 0, stage
        with open(tmp_path / name / "scenes.jsonl") as fh:
            n_scenes = sum(1 for _ in fh)
        assert n_scenes == 20 * 20 * 8  # the 3200-triplet default
        trees.append(storage.hash_tree(out))
    ok = trees[0] == trees[1]
    diff = [k for k in trees[0].keys() | trees[1].keys()
            if trees[0].get(k) != trees[1].get(k)]
    announce("C8 pipeline determinism", ok,
             f"{len(trees[0])} artifacts byte-identical across two default runs, "
             f"{time.time() - started:.0f}s" + (f"; differing: {diff[:5]}" if diff else ""))
    assert ok, diff


def test_c09_parser_soundness():
    started = time.time()
    pool = corpus.build_entity_pool("desk20")
    total = 0
    for nw in (6, 10):
        for cat in pool:
            spec = corpus.DescriptionSpec(20, nw, seed=derive_seed(0, "c9", cat.id))
            for desc in corpus.generate_descriptions(cat, spec):
                tree = parse(desc.text)
                meta = desc.generator_metadata
                assert (tree.subject.start_token, tree.subject.end_token) == meta.subject_span
                assert tuple((p.start_token, p.end_token)
                             for p in tree.phrases[1:]) == meta.nonsubject_spans
                assert is_absence(tree) == ("without" in desc.text.split())
                total += 1
    announce("C9 parser soundness", True,
             f"{total} descriptions round-trip exactly in {time.time() - started:.1f}s")


def test_c10_image_density(full_bundle, full_triplets, heldout_benchmark, ladder_reports):
    started = time.time()
    sparse_bundle = pipeline.build_corpus("desk20", num_descriptions=20,
                                          target_length_words=10,
                                          images_per_description=2, seed=0)
    sparse_triplets = pipeline.label_corpus(sparse_bundle)
    model, _ = pipeline.train_variant(sparse_bundle, sparse_triplets,
                                      pipeline.FULL_VARIANT, LADDER_TRAIN)
    sparse = pipeline.evaluate_model(model, heldout_benchmark,
                                     lexicon=sparse_bundle.lexicon, **EVAL)
    dense = ladder_reports["struct_pos"]  # trained on the 8-image corpus
    ok = dense.AP_descr >= sparse.AP_descr
    announce("C10 image density", ok,
             f"AP_descr 8 scenes/description {dense.AP_descr:.2f} >= "
             f"2 scenes/description {sparse.AP_descr:.2f}, {time.time() - started:.0f}s")
    assert ok
