"""The ``grounddesk`` command line: subcommands over a single JSON config with
seeded determinism, per-stage manifests, and canned ablation experiments.

A thin shell over :mod:`grounddesk.pipeline`, which builds every object: this
module reads the config, reads and writes artifacts, and keeps one manifest
per stage. Each stage declares once, in ``STAGES``, the config keys and the
files it reads; one runner requires, hashes and checks them. Re-running a
completed stage with unchanged config and inputs is a no-op; re-running the
pipeline with the same seed, at any ``--workers`` count, reproduces a
byte-identical artifact tree. Exit codes: 0 success,
2 config error (checked before any stage runs), 3 missing artifact, 4 numeric
failure, 5 corrupt artifact.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import functools
import json
import os
import sys
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor

from . import corpus, evalkit, labeling, langparse, pipeline, scenegen, storage, targets
from .groundnet import (AGGREGATIONS, GroundingModel, NumericError, TrainConfig, TrainExample,
                        Vocabulary, load_checkpoint, load_history, save_checkpoint,
                        save_history, train)
from .seeding import derive_seed

OUTPUT_ENV_VAR = "GROUNDDESK_OUT"


class ConfigError(ValueError):
    pass


class MissingArtifactError(FileNotFoundError):
    pass


class ArtifactError(ValueError):
    """An artifact exists but cannot be read: truncated, malformed or inconsistent."""


@contextlib.contextmanager
def _reading(path):
    """Re-raise a reader's failure on `path` as an ArtifactError that names it."""
    try:
        yield
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ArtifactError(detail if str(path) in detail else f"{path}: {detail}") from exc


DEFAULT_CONFIG = {
    "pool": "desk20",
    "descriptions": {"num_descriptions": 20, "target_length_words": 10},
    "images_per_description": 8,
    "distractors": {"confuser_prob": 0.5, "min_fillers": 1, "max_fillers": 2,
                    "negation_confuser_prob": 0.8,
                    "extra_attribute_weights": [0.45, 0.35, 0.2]},
    "features": {"dim": 64, "background_boxes": 2, "noise_sigma": 0.05},
    "detector": {"gamma": 0.93, "length_floor": 4, "noise_scale": 0.05, "seed": 0},
    "labeler": {"threshold_p": 0.5, "max_dets_per_phrase": 3, "strategy": "weak_to_strong"},
    "targets": {"k_neg": 2, "include_struct_pos": True, "sentence_level_positive": True,
                "structural_negative": True, "sentence_positive_covers_nonsubject": True,
                "absent_categories": 2},
    "train": {"epochs": 30, "learning_rate": 0.1, "momentum": 0.9, "batch_size": 8,
              "d_model": 32, "detection_mix_ratio": 0.25,
              "freeze": {"visual": False, "language": False, "fusion": False}},
    "eval": {"benchmark_scenes": 120, "fraction_negative": 0.5,
             "nw_choices": [4, 6, 8, 10, 12, 10, 12], "iou_threshold": 0.5,
             "score_threshold": 0.6, "aggregation": "max"},
    "output_dir": "runs/default",
    "seed": 0,
}


def _leaves(node, prefix=""):
    """(dotted path, value) for every non-dict value, in insertion order."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


# Every field takes the type of its default.
_SCHEMA = {path: type(value) for path, value in _leaves(DEFAULT_CONFIG)}

_RANGES = (
    ("labeler.threshold_p", lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    ("labeler.strategy", lambda v: v in pipeline.LABEL_STRATEGIES,
     f"must be one of {list(pipeline.LABEL_STRATEGIES)}"),
    ("images_per_description", lambda v: v >= 1, "must be >= 1"),
    ("features.dim", lambda v: v >= 8, "must be >= 8"),
    ("features.background_boxes", lambda v: v >= 0, "must be >= 0"),
    ("targets.k_neg", lambda v: v >= 0, "must be >= 0"),
    ("train.d_model", lambda v: v >= 1, "must be >= 1"),
    ("eval.nw_choices", lambda v: v and all(isinstance(n, int) and n >= 3 for n in v),
     "must be a non-empty list of integers >= 3"),
    ("eval.benchmark_scenes", lambda v: v >= 1, "must be >= 1"),
    ("eval.fraction_negative", lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    ("eval.iou_threshold", lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    ("eval.aggregation", lambda v: v in AGGREGATIONS, f"must be one of {list(AGGREGATIONS)}"),
    ("descriptions.target_length_words", lambda v: v >= 3, "must be >= 3"),
    ("train.epochs", lambda v: v >= 1, "must be >= 1"),
    ("train.batch_size", lambda v: v >= 1, "must be >= 1"),
    ("train.learning_rate", lambda v: v > 0, "must be > 0"),
    ("train.detection_mix_ratio", lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
)


def _get(config, dotted):
    node = config
    for part in dotted.split("."):
        node = node[part]
    return node


def _set(config, dotted, value):
    parts = dotted.split(".")
    node = config
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value


def validate_config(config) -> None:
    """Type-check every known field, reject unknown ones (dotted paths) and
    check value ranges, so that a bad config fails before any stage runs."""
    for path, value in _leaves(config):
        if path not in _SCHEMA:
            raise ConfigError(f"unknown config field: {path}")
        expected = _SCHEMA[path]
        if expected is float and isinstance(value, int) and not isinstance(value, bool):
            continue
        if not isinstance(value, expected) or (expected is int and isinstance(value, bool)):
            raise ConfigError(f"config field {path}: expected {expected.__name__}, "
                              f"got {type(value).__name__}")
    for path in _SCHEMA:
        try:
            _get(config, path)
        except KeyError:
            raise ConfigError(f"missing config field: {path}") from None
    for path, ok, rule in _RANGES:
        if not ok(_get(config, path)):
            raise ConfigError(f"config field {path}: {rule}")


def load_config(path=None, overrides=(), output_dir=None) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
        def merge(base, new, prefix=""):
            for key, value in new.items():
                if isinstance(value, dict) and isinstance(base.get(key), dict):
                    merge(base[key], value, f"{prefix}{key}.")
                else:
                    base[key] = value
        merge(config, user)
    for dotted, raw in overrides:
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set(config, dotted, value)
    env_dir = os.environ.get(OUTPUT_ENV_VAR)
    if env_dir:
        config["output_dir"] = env_dir
    if output_dir:
        config["output_dir"] = output_dir
    validate_config(config)
    return config


# stage plumbing ---------------------------------------------------------

def _out(config) -> str:
    out = config["output_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def _require(out_dir, filename, producer) -> None:
    if not os.path.exists(os.path.join(out_dir, filename)):
        raise MissingArtifactError(
            f"missing artifact {filename}; run 'grounddesk {producer}' first")


def _read(out_dir, filename, reader, **kwargs):
    """reader(path, **kwargs) on one artifact; its failure names the file."""
    path = os.path.join(out_dir, filename)
    with _reading(path):
        return reader(path, **kwargs)


def _pool_and_lexicon(config):
    pool = corpus.build_entity_pool(config["pool"])
    return pool, langparse.Lexicon.from_categories(pool)


def _distractor_config(config) -> scenegen.DistractorConfig:
    d = config["distractors"]
    return scenegen.DistractorConfig(
        confuser_prob=d["confuser_prob"], min_fillers=d["min_fillers"],
        max_fillers=d["max_fillers"], negation_confuser_prob=d["negation_confuser_prob"],
        extra_attribute_weights=tuple(d["extra_attribute_weights"]))


def _detector(config) -> labeling.BowDetector:
    d = config["detector"]
    return labeling.BowDetector(labeling.BowConfig(
        gamma=d["gamma"], length_floor=d["length_floor"],
        noise_scale=d["noise_scale"], seed=d["seed"]))


def _labeler_config(config) -> labeling.LabelerConfig:
    l = config["labeler"]
    return labeling.LabelerConfig(threshold_p=l["threshold_p"],
                                  max_dets_per_phrase=l["max_dets_per_phrase"])


def _train_config(config) -> TrainConfig:
    t = config["train"]
    return TrainConfig(epochs=t["epochs"], learning_rate=t["learning_rate"],
                       momentum=t["momentum"], batch_size=t["batch_size"],
                       freeze_visual=t["freeze"]["visual"],
                       freeze_language=t["freeze"]["language"],
                       freeze_fusion=t["freeze"]["fusion"],
                       detection_mix_ratio=t["detection_mix_ratio"],
                       seed=config["seed"])


def _target_config(config) -> targets.TargetConfig:
    t = config["targets"]
    return targets.TargetConfig(
        sentence_level_positive=t["sentence_level_positive"],
        structural_negative=t["structural_negative"],
        sentence_positive_covers_nonsubject=t["sentence_positive_covers_nonsubject"])


def _benchmark_config(config) -> scenegen.BenchmarkConfig:
    e, f = config["eval"], config["features"]
    return scenegen.BenchmarkConfig(
        fraction_negative=e["fraction_negative"], nw_choices=tuple(e["nw_choices"]),
        feature_dim=f["dim"], background_boxes=f["background_boxes"],
        noise_sigma=f["noise_sigma"], distractors=_distractor_config(config))


def _feature_config(config) -> pipeline.FeatureConfig:
    f = config["features"]
    return pipeline.FeatureConfig(dim=f["dim"], background_boxes=f["background_boxes"],
                                  noise_sigma=f["noise_sigma"])


def _benchmark(config, pool, lexicon):
    """The eval benchmark, drawn under its own seed label."""
    return scenegen.make_benchmark(pool, config["eval"]["benchmark_scenes"],
                                   derive_seed(config["seed"], "benchmark"),
                                   config=_benchmark_config(config), lexicon=lexicon)


def fanout(fn, items, workers: int = 1):
    """Order-preserving map; output does not depend on the worker count."""
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=8))


# The feature index stands for itself and every feature file it lists.
FEATURE_INDEX = "features/index.jsonl"


def _index_row(row) -> tuple:
    return row["file"], row["scene_id"], row["noise_seed"], [tuple(p) for p in row["proposals"]]


def _feature_index(out_dir) -> list[tuple]:
    """(file, scene_id, noise_seed, proposals) for each feature file, in index order."""
    return _read(out_dir, FEATURE_INDEX, storage.read_jsonl, decode=_index_row)


def _load_features(out_dir) -> dict:
    return {scene_id: _read(out_dir, rel, scenegen.read_features, proposals=proposals,
                            noise_seed=noise_seed)
            for rel, scene_id, noise_seed, proposals in _feature_index(out_dir)}


def _read_bundle(config, out_dir, features=None) -> pipeline.CorpusBundle:
    """The corpus as the gen and scenes stages wrote it."""
    pool, lexicon = _pool_and_lexicon(config)
    return pipeline.CorpusBundle(
        pool=pool, lexicon=lexicon,
        descriptions=_read(out_dir, "descriptions.jsonl", corpus.read_descriptions),
        scenes=_read(out_dir, "scenes.jsonl", scenegen.read_scenes), features=features or {})


def _read_triplets(out_dir) -> list[labeling.PseudoTriplet]:
    return _read(out_dir, "triplets.jsonl", storage.read_jsonl,
                 decode=labeling.triplet_from_json)


def _read_examples(out_dir, filename, features) -> list[TrainExample]:
    def decode(row):
        scene_id, query, target = targets.example_from_json(row)
        return TrainExample(features=features[scene_id].features, query=query, target=target,
                            scene_id=scene_id)
    return _read(out_dir, filename, storage.read_jsonl, decode=decode)


def _load_model(out_dir):
    vocab_path = os.path.join(out_dir, "model.vocab.json")
    with _reading(vocab_path):
        vocab = Vocabulary(tokens=tuple(storage.read_json(vocab_path)["tokens"]))
    return _read(out_dir, "model.ckpt", load_checkpoint, vocabulary=vocab)


def _write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _example_row(example: TrainExample) -> dict:
    return targets.example_to_json(example.scene_id, example.query, example.target)


# stages -----------------------------------------------------------------
# Each body gets the config restricted to its stage's keys. A stage with a
# manifest reads only its declared inputs and returns the files it wrote,
# relative to out.

def _gen(config, out, workers):
    pool, _ = _pool_and_lexicon(config)
    d = config["descriptions"]
    descriptions = pipeline.build_description_corpus(
        pool, d["num_descriptions"], d["target_length_words"], config["seed"],
        map_fn=functools.partial(fanout, workers=workers))
    corpus.write_descriptions(os.path.join(out, "descriptions.jsonl"), descriptions)
    if d["num_descriptions"] == 0:
        print("warning: num_descriptions is 0, wrote an empty corpus")
    print(f"gen: wrote {len(descriptions)} descriptions for {len(pool)} categories")
    return ["descriptions.jsonl"]


def _scenes(config, out, workers):
    pool, lexicon = _pool_and_lexicon(config)
    descriptions = _read(out, "descriptions.jsonl", corpus.read_descriptions)
    images = config["images_per_description"]
    scenes, features = pipeline.build_scene_corpus(
        pool, descriptions, images, config["seed"], _distractor_config(config),
        _feature_config(config), lexicon, map_fn=functools.partial(fanout, workers=workers))
    os.makedirs(os.path.join(out, "features"), exist_ok=True)
    index_rows = []
    for scene in scenes:
        rf = features[scene.scene_id]
        fname = f"features/scene_{scene.scene_id:06d}.bin"
        scenegen.write_features(os.path.join(out, fname), rf)
        index_rows.append({"scene_id": scene.scene_id, "file": fname,
                           "noise_seed": rf.noise_seed,
                           "proposals": [list(p) for p in rf.proposals]})
    scenegen.write_scenes(os.path.join(out, "scenes.jsonl"), scenes)
    _write_jsonl(os.path.join(out, FEATURE_INDEX), index_rows)
    print(f"scenes: wrote {len(scenes)} scenes "
          f"({len(descriptions)} descriptions x {images} seeds)")
    return ["scenes.jsonl", FEATURE_INDEX] + [row["file"] for row in index_rows]


def _label(config, out, workers):
    bundle = _read_bundle(config, out)
    triplets = pipeline.label_corpus(bundle, _detector(config), _labeler_config(config),
                                     config["labeler"]["strategy"],
                                     map_fn=functools.partial(fanout, workers=workers))
    _write_jsonl(os.path.join(out, "triplets.jsonl"), map(labeling.triplet_to_json, triplets))
    n_assigned = sum(1 for t in triplets if t.assignments)
    print(f"label: wrote {len(triplets)} pseudo-triplets ({n_assigned} with assignments)")
    return ["triplets.jsonl"]


def _targets(config, out, workers):
    bundle = _read_bundle(config, out, _load_features(out))
    triplets = _read_triplets(out)
    tc = config["targets"]
    variant = pipeline.SignalVariant("config", tc["k_neg"], tc["include_struct_pos"],
                                     _target_config(config))
    query_seed = derive_seed(config["seed"], "query")
    # Each example is written as soon as it is built; no list of them is kept.
    _write_jsonl(os.path.join(out, "examples.jsonl"),
                 (_example_row(pipeline.training_example(bundle, t, variant, query_seed))
                  for t in triplets if t.assignments))
    _write_jsonl(os.path.join(out, "detection_examples.jsonl"),
                 (_example_row(pipeline.detection_example(bundle, scene, config["seed"],
                                                          tc["absent_categories"]))
                  for scene in bundle.scenes))
    print(f"targets: wrote alignment targets to examples.jsonl and detection_examples.jsonl")
    return ["examples.jsonl", "detection_examples.jsonl"]


def _train(config, out, workers):
    features = _load_features(out)
    triplet_examples = _read_examples(out, "examples.jsonl", features)
    detection_examples = _read_examples(out, "detection_examples.jsonl", features)
    vocab = pipeline.build_vocabulary(corpus.build_entity_pool(config["pool"]))
    model = GroundingModel(vocab, d_in=config["features"]["dim"],
                           d_model=config["train"]["d_model"], seed=config["seed"])
    model, history = train(model, triplet_examples, detection_examples, _train_config(config))
    save_checkpoint(model, os.path.join(out, "model.ckpt"))
    storage.write_json(os.path.join(out, "model.vocab.json"), {"tokens": list(vocab.tokens)})
    save_history(os.path.join(out, "history.csv"), history)
    print(f"train: {len(triplet_examples)} triplet examples, "
          f"loss {history[0][1]:.4f} -> {history[-1][1]:.4f}")
    return ["model.ckpt", "model.vocab.json", "history.csv"]


def _eval(config, out, workers):
    pool, lexicon = _pool_and_lexicon(config)
    model = _load_model(out)
    e = config["eval"]
    bench = _benchmark(config, pool, lexicon)
    results = pipeline.run_model_on_benchmark(model, bench, e["score_threshold"],
                                              lexicon, agg=e["aggregation"])
    report = evalkit.omnilabel_report(results, bench, iou_threshold=e["iou_threshold"],
                                      lexicon=lexicon)
    evalkit.write_results(os.path.join(out, "results.jsonl"), results)
    scenegen.write_scenes(os.path.join(out, "benchmark_scenes.jsonl"), bench.scenes)
    payload = report.to_json()
    payload["d3"] = {"full": payload["d3_full"], "pres": payload["d3_pres"],
                     "abs": payload["d3_abs"]}
    storage.write_json(os.path.join(out, "report.json"), payload)
    print(f"eval: AP={report.AP:.2f} AP_categ={report.AP_categ:.2f} "
          f"AP_descr={report.AP_descr:.2f}")
    return ["results.jsonl", "benchmark_scenes.jsonl", "report.json"]


def _report(config, out, workers):
    """Summarise the run. Label recall and the loss curve are added when their
    artifacts exist, so the stage has no manifest and always runs."""
    summary = {"config_hash": storage.config_hash(config), "seed": config["seed"],
               "metrics": _read(out, "report.json", storage.read_json)}
    if os.path.exists(os.path.join(out, "triplets.jsonl")):
        summary["label_recall_mean"] = pipeline.mean_label_recall(_read_bundle(config, out),
                                                                  _read_triplets(out))
    if os.path.exists(os.path.join(out, "history.csv")):
        history = _read(out, "history.csv", load_history)
        summary["training"] = {"epochs": len(history),
                               "initial_loss": history[0][1], "final_loss": history[-1][1]}
    storage.write_json(os.path.join(out, "summary.json"), summary)
    print(json.dumps(summary, sort_keys=True, indent=2))


@dataclasses.dataclass(frozen=True)
class Stage:
    """What a stage uses, declared once: the top-level config keys its body
    reads, and each file it reads with the stage that writes that file."""
    keys: tuple[str, ...]
    inputs: dict[str, str]
    body: Callable
    manifest: bool = True


STAGES = {
    "gen": Stage(("pool", "descriptions", "seed"), {}, _gen),
    "scenes": Stage(("pool", "images_per_description", "distractors", "features", "seed"),
                    {"descriptions.jsonl": "gen"}, _scenes),
    "label": Stage(("pool", "detector", "labeler"),
                   {"descriptions.jsonl": "gen", "scenes.jsonl": "scenes"}, _label),
    "targets": Stage(("pool", "targets", "seed"),
                     {"descriptions.jsonl": "gen", "scenes.jsonl": "scenes",
                      "triplets.jsonl": "label", FEATURE_INDEX: "scenes"}, _targets),
    "train": Stage(("pool", "features", "train", "seed"),
                   {"examples.jsonl": "targets", "detection_examples.jsonl": "targets",
                    FEATURE_INDEX: "scenes"}, _train),
    "eval": Stage(("pool", "features", "distractors", "eval", "seed"),
                  {"model.ckpt": "train", "model.vocab.json": "train"}, _eval),
    "report": Stage(tuple(k for k in DEFAULT_CONFIG if k != "output_dir"),
                    {"report.json": "eval"}, _report, manifest=False),
}

PIPELINE_STAGES = tuple(STAGES)


def _input_files(out_dir, stage: Stage) -> list[str]:
    """Every file the stage reads, relative to out_dir, each required to
    exist; the feature index brings in the feature files it lists."""
    files = []
    for filename, producer in stage.inputs.items():
        _require(out_dir, filename, producer)
        listed = [rel for rel, *_ in _feature_index(out_dir)] if filename == FEATURE_INDEX else []
        for rel in listed:
            _require(out_dir, rel, producer)
        files += [filename] + listed
    return files


def _run_stage(name: str, config: dict, workers: int) -> None:
    """Run one stage unless its manifest still matches its config keys and
    inputs; a stage that runs records a new manifest of what it wrote."""
    stage = STAGES[name]
    out = _out(config)
    used = {key: config[key] for key in stage.keys}
    files = _input_files(out, stage)
    if not stage.manifest:
        stage.body(used, out, workers)
        return
    inputs = {rel: storage.sha256_file(os.path.join(out, rel)) for rel in files}
    with _reading(storage.manifest_path(out, name)):
        current = storage.stage_is_current(out, name, used, inputs)
    if current:
        print(f"{name}: up to date, skipping")
        return
    written = stage.body(used, out, workers)
    storage.write_manifest(out, name, used, inputs,
                           {rel: storage.sha256_file(os.path.join(out, rel)) for rel in written})


# ablations ---------------------------------------------------------------

def _ablate_dir(config, name):
    path = os.path.join(_out(config), "ablate", name)
    os.makedirs(path, exist_ok=True)
    return path


def _bundle_from_config(config, images=None):
    d = config["descriptions"]
    return pipeline.build_corpus(
        config["pool"], num_descriptions=d["num_descriptions"],
        target_length_words=d["target_length_words"],
        images_per_description=images or config["images_per_description"],
        seed=config["seed"], distractors=_distractor_config(config),
        features=_feature_config(config))


def _label_bundle(config, bundle, labeler_config=None):
    return pipeline.label_corpus(bundle, _detector(config),
                                 labeler_config or _labeler_config(config),
                                 config["labeler"]["strategy"])


def _train_and_eval(config, bundle, triplets, variant, train_config):
    """Train as ``grounddesk train`` does, on the bundle's triplets under one
    signal variant, and score the model on the eval benchmark."""
    detection = pipeline.build_detection_examples(bundle, config["seed"],
                                                  config["targets"]["absent_categories"])
    model, _ = pipeline.train_variant(bundle, triplets, variant, train_config, detection,
                                      d_model=config["train"]["d_model"],
                                      model_seed=config["seed"])
    e = config["eval"]
    return pipeline.evaluate_model(model, _benchmark(config, bundle.pool, bundle.lexicon),
                                   score_threshold=e["score_threshold"],
                                   iou_threshold=e["iou_threshold"],
                                   lexicon=bundle.lexicon, agg=e["aggregation"])


def cmd_ablate_threshold(config, workers: int = 1) -> int:
    out_dir = _ablate_dir(config, "threshold")
    bundle = _bundle_from_config(config)
    rows = []
    for p in (0.3, 0.5, 0.7):
        triplets = _label_bundle(config, bundle, dataclasses.replace(_labeler_config(config),
                                                              threshold_p=p))
        recall = pipeline.mean_label_recall(bundle, triplets)
        report = _train_and_eval(config, bundle, triplets, pipeline.FULL_VARIANT,
                                 _train_config(config))
        rows.append({"threshold_p": p, "recall": recall,
                     "AP": report.AP, "AP_descr": report.AP_descr})
        print(f"ablate threshold p={p}: recall={recall:.3f} AP_descr={report.AP_descr:.2f}")
    storage.write_json(os.path.join(out_dir, "threshold.json"), rows)
    return 0


def cmd_ablate_freeze(config, workers: int = 1) -> int:
    out_dir = _ablate_dir(config, "freeze")
    bundle = _bundle_from_config(config)
    triplets = _label_bundle(config, bundle)
    rows = []
    base = _train_config(config)
    for name in ("none", "visual", "language", "fusion"):
        tc = dataclasses.replace(base, freeze_visual=name == "visual",
                                 freeze_language=name == "language",
                                 freeze_fusion=name == "fusion")
        report = _train_and_eval(config, bundle, triplets, pipeline.FULL_VARIANT, tc)
        rows.append({"freeze": name, "AP": report.AP, "AP_categ": report.AP_categ,
                     "AP_descr": report.AP_descr})
        print(f"ablate freeze {name}: AP={report.AP:.2f} AP_descr={report.AP_descr:.2f}")
    storage.write_json(os.path.join(out_dir, "freeze.json"), rows)
    return 0


def cmd_ablate_length(config, workers: int = 1) -> int:
    out_dir = _ablate_dir(config, "length")
    pool, _ = _pool_and_lexicon(config)
    rows = []
    for nw in (6, 8, 10, 12):
        descs = pipeline.build_description_corpus(
            pool, config["descriptions"]["num_descriptions"], nw, config["seed"])
        stats = corpus.text_stats(descs)
        rows.append({"target_length_words": nw, "mean_nouns": stats.mean_nouns,
                     "mean_adjectives": stats.mean_adjectives, "count": stats.count})
        print(f"ablate length NW={nw}: NOUN={stats.mean_nouns:.2f} ADJ={stats.mean_adjectives:.2f}")
    storage.write_json(os.path.join(out_dir, "length.json"), rows)
    return 0


def cmd_ablate_density(config, workers: int = 1) -> int:
    out_dir = _ablate_dir(config, "density")
    rows = []
    for images in (2, 4, 8):
        bundle = _bundle_from_config(config, images=images)
        report = _train_and_eval(config, bundle, _label_bundle(config, bundle),
                                 pipeline.FULL_VARIANT, _train_config(config))
        rows.append({"images_per_description": images, "AP": report.AP,
                     "AP_descr": report.AP_descr, "AP_descr_L": report.AP_descr_L})
        print(f"ablate density images={images}: AP_descr={report.AP_descr:.2f}")
    storage.write_json(os.path.join(out_dir, "density.json"), rows)
    return 0


def cmd_ablate_signals(config, workers: int = 1) -> int:
    out_dir = _ablate_dir(config, "signals")
    bundle = _bundle_from_config(config)
    triplets = _label_bundle(config, bundle)
    tc = _train_config(config)
    rows = []
    for variant in pipeline.SIGNAL_LADDER:
        report = _train_and_eval(config, bundle, triplets, variant, tc)
        rows.append({"signals": variant.name, "AP": report.AP, "AP_categ": report.AP_categ,
                     "AP_descr": report.AP_descr, "AP_descr_L": report.AP_descr_L})
        print(f"ablate signals {variant.name}: AP_descr={report.AP_descr:.2f} "
              f"AP_descr_L={report.AP_descr_L:.2f}")
    storage.write_json(os.path.join(out_dir, "signals.json"), rows)
    return 0


ABLATIONS = {
    "threshold": cmd_ablate_threshold, "freeze": cmd_ablate_freeze,
    "length": cmd_ablate_length, "density": cmd_ablate_density,
    "signals": cmd_ablate_signals,
}


def run(subcommand: str, config: dict, workers: int = 1) -> int:
    """Execute one pipeline subcommand; returns the process exit code."""
    try:
        if subcommand in STAGES or subcommand == "all":
            for stage in PIPELINE_STAGES if subcommand == "all" else (subcommand,):
                _run_stage(stage, config, workers)
            return 0
        experiment = subcommand.removeprefix("ablate:")
        if experiment == subcommand or experiment not in ABLATIONS:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        return ABLATIONS[experiment](config, workers)
    except ArtifactError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 5
    except (ConfigError, corpus.PoolError, corpus.CorpusError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="grounddesk",
                                     description="Synthetic grounding workbench pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file merged over defaults")
        p.add_argument("--set", action="append", default=[], metavar="PATH=VALUE",
                       help="override a config field by dotted path")
        p.add_argument("--threshold-p", type=float, default=None,
                       help="shorthand for --set labeler.threshold_p=...")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for fan-out stages")

    for name in PIPELINE_STAGES + ("all",):
        add_common(sub.add_parser(name))
    ablate = sub.add_parser("ablate")
    ablate.add_argument("experiment", choices=sorted(ABLATIONS))
    add_common(ablate)
    parse_cmd = sub.add_parser("parse", help="print the parse tree of a description")
    parse_cmd.add_argument("text")

    args = parser.parse_args(argv)
    if args.command == "parse":
        try:
            print(langparse.format_tree(langparse.parse(args.text)))
            return 0
        except langparse.ParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return 2

    overrides = []
    for item in args.set:
        if "=" not in item:
            print(f"config error: --set expects PATH=VALUE, got {item!r}", file=sys.stderr)
            return 2
        overrides.append(tuple(item.split("=", 1)))
    if args.threshold_p is not None:
        overrides.append(("labeler.threshold_p", str(args.threshold_p)))
    try:
        config = load_config(args.config, overrides, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    subcommand = f"ablate:{args.experiment}" if args.command == "ablate" else args.command
    return run(subcommand, config, workers=args.workers)


if __name__ == "__main__":
    sys.exit(main())
