"""The ``grounddesk`` command line: subcommands over a single JSON config with
seeded determinism, per-stage manifests, and canned ablation experiments.

A thin shell over :mod:`grounddesk.pipeline`, which builds every object: this
module reads the config, reads and writes artifacts, and keeps one manifest
per stage. Each stage declares once, in ``STAGES``, the config keys and the
files it reads; one runner requires, hashes and checks them. Re-running a
completed stage with unchanged config and inputs is a no-op; re-running the
pipeline with the same seed reproduces a byte-identical artifact tree. Exit
codes: 0 success, 2 config error (checked before any stage runs), 3 missing
artifact, 4 numeric failure, 5 corrupt artifact.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys
from collections.abc import Callable

from . import corpus, evalkit, labeling, langparse, pipeline, scenegen, storage, targets
from .groundnet import (AGGREGATIONS, GroundingModel, NumericError, TrainConfig, TrainExample,
                        Vocabulary, load_checkpoint, load_history, save_checkpoint,
                        save_history, train)

OUTPUT_ENV_VAR = "GROUNDDESK_OUT"


class ConfigError(ValueError):
    pass


class MissingArtifactError(FileNotFoundError):
    pass


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

# The rules for values that configure a function. A value that a config
# object carries is checked by that object alone (_CONFIG_OBJECTS).
_RANGES = (
    ("labeler.strategy", lambda v: v in pipeline.LABEL_STRATEGIES,
     f"must be one of {list(pipeline.LABEL_STRATEGIES)}"),
    ("images_per_description", lambda v: v >= 1, "must be >= 1"),
    ("features.dim", lambda v: v >= 8, "must be >= 8"),
    ("features.background_boxes", lambda v: v >= 0, "must be >= 0"),
    ("targets.k_neg", lambda v: v >= 0, "must be >= 0"),
    ("targets.absent_categories", lambda v: v >= 0, "must be >= 0"),
    ("train.d_model", lambda v: v >= 1, "must be >= 1"),
    ("eval.benchmark_scenes", lambda v: v >= 1, "must be >= 1"),
    ("eval.iou_threshold", lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    ("eval.aggregation", lambda v: v in AGGREGATIONS, f"must be one of {list(AGGREGATIONS)}"),
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


# config objects ---------------------------------------------------------

def _description_spec(config) -> corpus.DescriptionSpec:
    return corpus.DescriptionSpec(**config["descriptions"])


def _distractor_config(config) -> scenegen.DistractorConfig:
    d = config["distractors"]
    return scenegen.DistractorConfig(
        **{**d, "extra_attribute_weights": tuple(d["extra_attribute_weights"])})


def _feature_config(config) -> scenegen.FeatureConfig:
    return scenegen.FeatureConfig(**config["features"])


def _bow_config(config) -> labeling.BowConfig:
    return labeling.BowConfig(**config["detector"])


def _labeler_config(config) -> labeling.LabelerConfig:
    l = config["labeler"]
    return labeling.LabelerConfig(threshold_p=l["threshold_p"],
                                  max_dets_per_phrase=l["max_dets_per_phrase"])


def _target_config(config) -> targets.TargetConfig:
    t = config["targets"]
    return targets.TargetConfig(
        sentence_level_positive=t["sentence_level_positive"],
        structural_negative=t["structural_negative"],
        sentence_positive_covers_nonsubject=t["sentence_positive_covers_nonsubject"])


def _train_config(config) -> TrainConfig:
    t = config["train"]
    return TrainConfig(epochs=t["epochs"], learning_rate=t["learning_rate"],
                       momentum=t["momentum"], batch_size=t["batch_size"],
                       freeze_visual=t["freeze"]["visual"],
                       freeze_language=t["freeze"]["language"],
                       freeze_fusion=t["freeze"]["fusion"],
                       detection_mix_ratio=t["detection_mix_ratio"],
                       seed=config["seed"])


def _benchmark_config(config) -> scenegen.BenchmarkConfig:
    e = config["eval"]
    return scenegen.BenchmarkConfig(
        fraction_negative=e["fraction_negative"], nw_choices=tuple(e["nw_choices"]),
        features=_feature_config(config), distractors=_distractor_config(config))


# Every config object a stage builds, after the block of the config its
# fields come from: a constructor's ValueError starts with the field's name,
# so the block makes it the dotted path.
_CONFIG_OBJECTS = (("descriptions", _description_spec), ("distractors", _distractor_config),
                   ("features", _feature_config), ("detector", _bow_config),
                   ("labeler", _labeler_config), ("targets", _target_config),
                   ("train", _train_config), ("eval", _benchmark_config))


def validate_config(config) -> None:
    """Type-check every known field, reject unknown ones (dotted paths), check
    _RANGES, build every config object (_CONFIG_OBJECTS), each of which checks
    its own values, and check the description lengths against the pool's
    grammar, so that a bad config fails before any stage runs."""
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
    for block, build in _CONFIG_OBJECTS:
        try:
            build(config)
        except ValueError as exc:
            raise ConfigError(f"config field {block}.{exc}") from None
    n, k_neg = config["descriptions"]["num_descriptions"], config["targets"]["k_neg"]
    if 1 <= n <= k_neg:
        raise ConfigError(f"config field descriptions.num_descriptions: {n} leaves {n - 1} "
                          f"same-category alternatives, but targets.k_neg needs {k_neg}")
    try:
        pool = corpus.build_entity_pool(config["pool"])
    except corpus.PoolError as exc:
        raise ConfigError(f"config field pool: {exc}") from None
    shortest = min(pool, key=corpus.max_length_words)
    longest, name = corpus.max_length_words(shortest), shortest.name
    for path in ("descriptions.target_length_words", "eval.nw_choices"):
        asked = _get(config, path)
        asked = max(asked) if isinstance(asked, list) else asked
        if asked > longest:
            raise ConfigError(f"config field {path}: {asked} words, but the longest description "
                              f"pool {config['pool']!r} can generate for {name!r} has {longest}")


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
    with storage.reading(path):
        return reader(path, **kwargs)


def _pool_and_lexicon(config):
    pool = corpus.build_entity_pool(config["pool"])
    return pool, langparse.Lexicon.from_categories(pool)


def _read_bundle(config, out_dir) -> pipeline.CorpusBundle:
    """The corpus as the gen and scenes stages wrote it, without features."""
    pool, lexicon = _pool_and_lexicon(config)
    descriptions, trees = _read(out_dir, "descriptions.jsonl", corpus.read_descriptions,
                                pool=pool, lexicon=lexicon)
    scenes = _read(out_dir, "scenes.jsonl", scenegen.read_scenes, n_descriptions=len(descriptions),
                   vocabulary=pipeline.build_vocabulary(pool).index)
    return pipeline.CorpusBundle(pool=pool, lexicon=lexicon, descriptions=descriptions,
                                 scenes=scenes, features={}, trees=trees)


def _read_triplets(out_dir, bundle, background_boxes) -> list[labeling.PseudoTriplet]:
    """The triplets of triplets.jsonl. A triplet whose scene_id names no scene, whose
    description is not its scene's, or whose assignment names no region or phrase fails its line."""
    def decode(row):
        triplet = labeling.triplet_from_json(row)
        if not 0 <= triplet.scene_id < len(bundle.scenes):
            raise ValueError(f"scene_id {triplet.scene_id} names no scene of scenes.jsonl")
        scene = bundle.scenes[triplet.scene_id]
        if triplet.description != bundle.descriptions[scene.description_id].text:
            raise ValueError(f"description {triplet.description!r} is not the description of "
                             f"scene {triplet.scene_id}")
        targets.check_assignments(triplet, scenegen.region_count(scene, background_boxes),
                                  bundle.index.tree(scene.description_id))
        return triplet
    return _read(out_dir, "triplets.jsonl", storage.read_jsonl, decode=decode)


def _read_examples(out_dir, filename, features, vocab: Vocabulary) -> list[TrainExample]:
    """The examples of one examples file. A token outside `vocab` fails the
    line, since training would fold it into the unknown token, as does a
    region count other than the scene's."""
    def decode(row):
        scene_id, query, target = targets.example_from_json(row)
        unknown = [token for token in query.tokens if token not in vocab.index]
        if unknown:
            raise ValueError(f"token {unknown[0]!r} is not in the vocabulary")
        if scene_id not in features:
            raise ValueError(f"scene_id {scene_id} names no scene of features.bin")
        x = features[scene_id].features
        if len(x) != len(target.matrix):
            raise ValueError(f"n_regions {len(target.matrix)} does not match the {len(x)} "
                             f"regions of scene {scene_id}")
        return TrainExample(features=x, query=query, target=target, scene_id=scene_id)
    return _read(out_dir, filename, storage.read_jsonl, decode=decode)


# stages -----------------------------------------------------------------
# Each body gets the config restricted to its stage's keys. A stage with a
# manifest reads only its declared inputs and writes its declared outputs.

def _gen(config, out):
    pool, _ = _pool_and_lexicon(config)
    d = config["descriptions"]
    descriptions = pipeline.build_description_corpus(
        pool, d["num_descriptions"], d["target_length_words"], config["seed"])
    corpus.write_descriptions(os.path.join(out, "descriptions.jsonl"), descriptions)
    if d["num_descriptions"] == 0:
        print("warning: num_descriptions is 0, wrote an empty corpus")
    print(f"gen: wrote {len(descriptions)} descriptions for {len(pool)} categories")


def _scenes(config, out):
    pool, lexicon = _pool_and_lexicon(config)
    descriptions, trees = _read(out, "descriptions.jsonl", corpus.read_descriptions, pool=pool,
                                lexicon=lexicon)
    images = config["images_per_description"]
    scenes, features = pipeline.build_scene_corpus(
        pool, descriptions, images, config["seed"], _distractor_config(config),
        _feature_config(config), lexicon, trees=trees)
    scenegen.write_scenes(os.path.join(out, "scenes.jsonl"), scenes)
    scenegen.write_features(os.path.join(out, "features.bin"), features)
    print(f"scenes: wrote {len(scenes)} scenes "
          f"({len(descriptions)} descriptions x {images} seeds)")


def _label(config, out):
    bundle = _read_bundle(config, out)
    triplets = pipeline.label_corpus(bundle, labeling.BowDetector(_bow_config(config)),
                                     _labeler_config(config), config["labeler"]["strategy"])
    storage.write_jsonl(os.path.join(out, "triplets.jsonl"),
                        map(labeling.triplet_to_json, triplets))
    storage.write_json(os.path.join(out, "label_stats.json"),
                       {"label_recall_mean": pipeline.mean_label_recall(bundle, triplets)})
    n_assigned = sum(1 for t in triplets if t.assignments)
    print(f"label: wrote {len(triplets)} pseudo-triplets ({n_assigned} with assignments)")


def _targets(config, out):
    """Each scene's region count is its objects plus the background boxes
    (scenegen.region_count()), so the stage reads no features."""
    bundle = _read_bundle(config, out)
    tc, seed = config["targets"], config["seed"]
    background = config["features"]["background_boxes"]
    triplets = _read_triplets(out, bundle, background)
    variant = dataclasses.replace(pipeline.FULL_VARIANT, k_neg=tc["k_neg"],
                                  include_struct_pos=tc["include_struct_pos"],
                                  target_config=_target_config(config))
    # Each example is written as soon as it is built; no list of them is kept.
    storage.write_jsonl(os.path.join(out, "examples.jsonl"), (
        targets.example_to_json(t.scene_id, *pipeline.training_target(
            bundle, t, variant, seed, scenegen.region_count(bundle.scenes[t.scene_id], background)))
        for t in triplets if t.assignments))
    storage.write_jsonl(os.path.join(out, "detection_examples.jsonl"), (
        targets.example_to_json(scene.scene_id, *pipeline.detection_target(
            bundle, scene, seed, tc["absent_categories"],
            scenegen.region_count(scene, background)))
        for scene in bundle.scenes))
    print(f"targets: wrote alignment targets to examples.jsonl and detection_examples.jsonl")


def _train(config, out):
    vocab = pipeline.build_vocabulary(corpus.build_entity_pool(config["pool"]))
    features = _read(out, "features.bin", scenegen.read_features)
    triplet_examples = _read_examples(out, "examples.jsonl", features, vocab)
    detection_examples = _read_examples(out, "detection_examples.jsonl", features, vocab)
    model = GroundingModel(vocab, d_in=config["features"]["dim"],
                           d_model=config["train"]["d_model"], seed=config["seed"])
    model, history = train(model, triplet_examples, detection_examples, _train_config(config))
    save_checkpoint(model, os.path.join(out, "model.ckpt"))
    save_history(os.path.join(out, "history.csv"), history)
    print(f"train: {len(triplet_examples)} triplet examples, "
          f"loss {history[0][1]:.4f} -> {history[-1][1]:.4f}")


def _eval_scores(config, out):
    """The half of eval that does not depend on the IoU threshold: build the
    benchmark, run the model on it, which gives its detections as
    evalkit.ResultColumns, and write what matching needs, match_table.bin:
    each label's ranking, joined to its ground truth, and each candidate
    detection's IoUs. It also exports the same columns as results.jsonl and
    the benchmark as benchmark_scenes.jsonl and benchmark_labels.jsonl. No
    stage reads the exports, so they are not declared outputs: the manifest
    does not hash them, and an edited export leaves the scores current."""
    pool, lexicon = _pool_and_lexicon(config)
    model = _read(out, "model.ckpt", load_checkpoint, vocabulary=pipeline.build_vocabulary(pool))
    e = config["eval"]
    bench = pipeline.default_benchmark(pool, config["seed"], e["benchmark_scenes"],
                                       config=_benchmark_config(config), lexicon=lexicon)
    results = pipeline.run_model_on_benchmark(model, bench, e["score_threshold"],
                                              lexicon, agg=e["aggregation"])
    evalkit.write_results(os.path.join(out, "results.jsonl"), results)
    scenegen.write_scenes(os.path.join(out, "benchmark_scenes.jsonl"), bench.scenes)
    evalkit.write_description_labels(os.path.join(out, "benchmark_labels.jsonl"),
                                     bench.description_labels)
    evalkit.write_match_table(os.path.join(out, "match_table.bin"),
                              evalkit.match_table(results, bench))
    print(f"eval: scored {len(bench.scenes)} benchmark scenes")


def _eval(config, out):
    """The matching half of eval: match at eval.iou_threshold from the one
    table the scoring half wrote for it, match_table.bin."""
    iou_threshold = config["eval"]["iou_threshold"]
    report = evalkit.omnilabel_report(_read(out, "match_table.bin", evalkit.read_match_table),
                                      iou_threshold=iou_threshold)
    payload = report.to_json()
    payload["d3"] = {"full": payload["d3_full"], "pres": payload["d3_pres"],
                     "abs": payload["d3_abs"]}
    storage.write_json(os.path.join(out, "report.json"), payload)
    print(f"eval: at IoU {iou_threshold}: AP={report.AP:.2f} AP_categ={report.AP_categ:.2f} "
          f"AP_descr={report.AP_descr:.2f}")


def _training_summary(path) -> dict:
    history = load_history(path)
    if not history:
        raise ValueError("no epochs recorded")
    return {"epochs": len(history), "initial_loss": history[0][1], "final_loss": history[-1][1]}


def _label_recall(path) -> float:
    recall = storage.read_json(path)["label_recall_mean"]
    if type(recall) not in (int, float) or not 0.0 <= recall <= 1.0:
        raise ValueError(f"label_recall_mean {recall!r} is not a number in [0, 1]")
    return recall


def _report(config, out):
    """Summarise the run. The mean label recall that the label stage recorded
    and the loss curve are added when their stages have run, so the stage has
    no manifest and always runs."""
    summary = {"config_hash": storage.config_hash(config), "seed": config["seed"],
               "metrics": _read(out, "report.json", storage.read_json)}
    if os.path.exists(os.path.join(out, "triplets.jsonl")):
        _require(out, "label_stats.json", "label")
        summary["label_recall_mean"] = _read(out, "label_stats.json", _label_recall)
    if os.path.exists(os.path.join(out, "history.csv")):
        summary["training"] = _read(out, "history.csv", _training_summary)
    storage.write_json(os.path.join(out, "summary.json"), summary)
    print(json.dumps(summary, sort_keys=True, indent=2))


@dataclasses.dataclass(frozen=True)
class Stage:
    """What one manifest covers, declared once: its name, the config keys
    its body reads (dotted paths reach into a block), each file it reads
    with the command that writes that file, and the files it writes. Exports
    that no stage reads (the scoring half's results.jsonl,
    benchmark_scenes.jsonl and benchmark_labels.jsonl) are written but not
    declared, so no manifest hashes them. A manifest that does not record
    exactly the declared outputs is stale, so a tree from before an output
    was added or dropped runs the stage again; a dropped output's file is
    left where it is, and no longer hashed."""
    name: str
    keys: tuple[str, ...]
    inputs: dict[str, str]
    outputs: tuple[str, ...]
    body: Callable
    manifest: bool = True


# Each command runs its stages in order. eval is two: the scores, which do
# not depend on eval.iou_threshold and are reused while their inputs hold,
# and the matching, which keeps the command's name.
STAGES = {
    "gen": (Stage("gen", ("pool", "descriptions", "seed"), {}, ("descriptions.jsonl",), _gen),),
    "scenes": (Stage("scenes", ("pool", "images_per_description", "distractors", "features",
                                "seed"),
                     {"descriptions.jsonl": "gen"}, ("scenes.jsonl", "features.bin"), _scenes),),
    "label": (Stage("label", ("pool", "detector", "labeler"),
                    {"descriptions.jsonl": "gen", "scenes.jsonl": "scenes"},
                    ("triplets.jsonl", "label_stats.json"), _label),),
    "targets": (Stage("targets", ("pool", "targets", "features.background_boxes", "seed"),
                      {"descriptions.jsonl": "gen", "scenes.jsonl": "scenes",
                       "triplets.jsonl": "label"},
                      ("examples.jsonl", "detection_examples.jsonl"), _targets),),
    "train": (Stage("train", ("pool", "features", "train", "seed"),
                    {"examples.jsonl": "targets", "detection_examples.jsonl": "targets",
                     "features.bin": "scenes"},
                    ("model.ckpt", "history.csv"), _train),),
    "eval": (Stage("eval_scores", ("pool", "features", "distractors", "seed",
                                   "eval.benchmark_scenes", "eval.fraction_negative",
                                   "eval.nw_choices", "eval.score_threshold",
                                   "eval.aggregation"),
                   {"model.ckpt": "train"}, ("match_table.bin",), _eval_scores),
             Stage("eval", ("eval.iou_threshold",), {"match_table.bin": "eval"}, ("report.json",),
                   _eval)),
    "report": (Stage("report", tuple(k for k in DEFAULT_CONFIG if k != "output_dir"),
                     {"report.json": "eval"}, ("summary.json",), _report, manifest=False),),
}

PIPELINE_STAGES = tuple(STAGES)


def _config_slice(config, keys) -> dict:
    """The nested part of config that the dotted keys name."""
    used = {}
    for key in keys:
        _set(used, key, _get(config, key))
    return used


def _input_hashes(out_dir, stage: Stage, digests: dict) -> dict:
    """The hash of every file the stage reads, relative to out_dir, each
    required to exist. A file already in `digests`, which maps each file the
    command has hashed to its hash, is not hashed again; the others are
    added to it."""
    inputs = {}
    for filename, producer in stage.inputs.items():
        _require(out_dir, filename, producer)
        if filename not in digests:
            digests[filename] = storage.sha256_file(os.path.join(out_dir, filename))
        inputs[filename] = digests[filename]
    return inputs


def _run_stage(name: str, config: dict, digests: dict) -> None:
    """Run a command's stages in order. A stage is skipped while its manifest
    still matches its config keys, inputs and declared outputs and no earlier
    stage of the command ran; a stage that runs records a new manifest of
    what it wrote. Each file is hashed at most once per map of `digests`
    (file name -> hash): the hashes of outputs that a skipped stage verified
    or a stage that ran recorded serve as the input hashes of the stages
    after it. Across commands, storage.sha256_file reads each settled file
    at most once per process."""
    out = _out(config)
    reused, ran = [], False
    for stage in STAGES[name]:
        used = _config_slice(config, stage.keys)
        if not stage.manifest:
            for filename, producer in stage.inputs.items():
                _require(out, filename, producer)
            stage.body(used, out)
            ran = True
            continue
        inputs = _input_hashes(out, stage, digests)
        if not ran:
            verified = storage.stage_is_current(out, stage.name, used, inputs, stage.outputs)
            if verified is not None:
                digests.update(verified)
                reused.append(stage.name.removeprefix(name + "_"))
                continue
        for part in reused:
            print(f"{name}: {part} up to date, reused")
        reused, ran = [], True
        stage.body(used, out)
        outputs = {rel: storage.sha256_file(os.path.join(out, rel)) for rel in stage.outputs}
        digests.update(outputs)
        storage.write_manifest(out, stage.name, used, inputs, outputs)
    if not ran:
        print(f"{name}: up to date, skipping")


def _run_commands(names, config: dict) -> None:
    """Run the commands in order with one digest map, so that `grounddesk
    all` hashes each file at most once: no stage writes a file except as a
    declared output, whose hash then replaces the one in the map."""
    digests = {}
    for name in names:
        _run_stage(name, config, digests)


# ablations ---------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Setting:
    """One row of an ablation: its value in the table's column and the config
    overrides it makes (dotted path -> value)."""
    value: object
    overrides: dict


@dataclasses.dataclass(frozen=True)
class Ablation:
    """A table's column, its rows' settings and the metrics each row reports
    (fields of report.json, or "recall" for the mean label recall)."""
    column: str
    settings: tuple[Setting, ...]
    metrics: tuple[str, ...]


def _signal_overrides(variant: pipeline.SignalVariant) -> dict:
    """The targets settings under which `grounddesk all` trains the variant."""
    return {"targets.k_neg": variant.k_neg,
            "targets.include_struct_pos": variant.include_struct_pos,
            "targets.sentence_level_positive": variant.target_config.sentence_level_positive,
            "targets.structural_negative": variant.target_config.structural_negative}


ABLATIONS = {
    "threshold": Ablation("threshold_p",
                          tuple(Setting(p, {"labeler.threshold_p": p}) for p in (0.3, 0.5, 0.7)),
                          ("recall", "AP", "AP_descr")),
    "freeze": Ablation("freeze",
                       tuple(Setting(name, {f"train.freeze.{block}": block == name
                                            for block in ("visual", "language", "fusion")})
                             for name in ("none", "visual", "language", "fusion")),
                       ("AP", "AP_categ", "AP_descr")),
    "density": Ablation("images_per_description",
                        tuple(Setting(n, {"images_per_description": n}) for n in (2, 4, 8)),
                        ("AP", "AP_descr", "AP_descr_L")),
    "signals": Ablation("signals",
                        tuple(Setting(v.name, _signal_overrides(v)) for v in pipeline.SIGNAL_LADDER),
                        ("AP", "AP_categ", "AP_descr", "AP_descr_L")),
}

ABLATE_CHOICES = sorted([*ABLATIONS, "length"])


def _ablate(name, config) -> list[dict]:
    """The named table's rows. Each row runs `grounddesk all`'s stages under
    the config with the setting's overrides, in one tree that every row of the
    table shares, <out>/ablate/<name>/tree, so a stage whose config keys and
    inputs a row leaves unchanged is skipped. A row's figures are read from
    the tree's summary.json. Every row's config is validated before the first
    row runs."""
    ablation = ABLATIONS[name]
    tree = os.path.join(config["output_dir"], "ablate", name, "tree")
    configs = []
    for setting in ablation.settings:
        cfg = copy.deepcopy(config)
        for path, value in setting.overrides.items():
            _set(cfg, path, value)
        cfg["output_dir"] = tree
        validate_config(cfg)
        configs.append(cfg)
    rows = []
    for setting, cfg in zip(ablation.settings, configs):
        _run_commands(PIPELINE_STAGES, cfg)
        summary = _read(tree, "summary.json", storage.read_json)
        row = {ablation.column: setting.value}
        for metric in ablation.metrics:
            row[metric] = (summary["label_recall_mean"] if metric == "recall"
                           else summary["metrics"][metric])
        rows.append(row)
        print(f"ablate {name} {ablation.column}={setting.value}: "
              + " ".join(f"{metric}=" + ("null" if row[metric] is None else f"{row[metric]:.3f}")
                         for metric in ablation.metrics))
    return rows


def _ablate_length(config) -> list[dict]:
    """Description statistics at each target length; trains nothing."""
    pool, lexicon = _pool_and_lexicon(config)
    rows = []
    for nw in (6, 8, 10, 12):
        descs = pipeline.build_description_corpus(
            pool, config["descriptions"]["num_descriptions"], nw, config["seed"])
        stats = corpus.text_stats(descs, lexicon)
        rows.append({"target_length_words": nw, "mean_nouns": stats.mean_nouns,
                     "mean_adjectives": stats.mean_adjectives, "count": stats.count})
        print(f"ablate length NW={nw}: NOUN={stats.mean_nouns:.2f} ADJ={stats.mean_adjectives:.2f}")
    return rows


def run(subcommand: str, config: dict, workers: int = 1) -> int:
    """Execute one pipeline subcommand; returns the process exit code. Every
    stage runs in this process, so a `workers` other than 1 is a config error."""
    try:
        if workers != 1:
            raise ConfigError(f"workers={workers!r}: every stage runs in one process")
        if subcommand in STAGES or subcommand == "all":
            _run_commands(PIPELINE_STAGES if subcommand == "all" else (subcommand,), config)
            return 0
        experiment = subcommand.removeprefix("ablate:")
        if experiment == subcommand or experiment not in ABLATE_CHOICES:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        rows = (_ablate_length(config) if experiment == "length"
                else _ablate(experiment, config))
        out_dir = os.path.join(_out(config), "ablate", experiment)
        os.makedirs(out_dir, exist_ok=True)
        storage.write_json(os.path.join(out_dir, f"{experiment}.json"), rows)
        return 0
    except storage.ArtifactError as exc:
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
        p.add_argument("--out", default=None, help="output directory")

    for name in PIPELINE_STAGES + ("all",):
        add_common(sub.add_parser(name))
    ablate = sub.add_parser("ablate")
    ablate.add_argument("experiment", choices=ABLATE_CHOICES)
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
    try:
        config = load_config(args.config, overrides, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    subcommand = f"ablate:{args.experiment}" if args.command == "ablate" else args.command
    return run(subcommand, config)


if __name__ == "__main__":
    sys.exit(main())
