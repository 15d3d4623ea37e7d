import builtins
import collections
import dataclasses
import importlib.util
import json
import os
import re
import shutil
import struct
import sys
import time

import numpy as np
import pytest

from grounddesk import (cli, corpus, evalkit, labeling, langparse, pipeline, scenegen, storage,
                        targets)
from grounddesk.cli import ConfigError, load_config
from grounddesk.groundnet import GroundingModel, Vocabulary, load_checkpoint

SMALL = ["--set", "descriptions.num_descriptions=3",
         "--set", "images_per_description=2",
         "--set", "train.epochs=3",
         "--set", "eval.benchmark_scenes=6"]


def run_cli(args):
    return cli.main(args)


def test_default_config_validates():
    config = load_config()
    assert config["labeler"]["threshold_p"] == 0.5
    assert config["descriptions"]["num_descriptions"] == 20
    assert config["images_per_description"] == 8


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 5, "labeler": {"threshold_p": 0.3}}))
    config = load_config(str(path), overrides=[("train.epochs", "7")])
    assert config["seed"] == 5
    assert config["labeler"]["threshold_p"] == 0.3
    assert config["train"]["epochs"] == 7
    assert config["pool"] == "desk20"  # untouched defaults survive


def test_env_var_sets_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ENV_VAR, str(tmp_path / "env_out"))
    config = load_config()
    assert config["output_dir"] == str(tmp_path / "env_out")


def test_config_rejects_unknown_and_badly_typed_fields():
    with pytest.raises(ConfigError, match="unknown config field"):
        load_config(overrides=[("labeler.nonsense", "1")])
    with pytest.raises(ConfigError, match="expected int"):
        load_config(overrides=[("train.epochs", '"ten"')])
    with pytest.raises(ConfigError, match="threshold_p"):
        load_config(overrides=[("labeler.threshold_p", "1.7")])


@pytest.mark.parametrize("field,value", [
    ("train.epochs", "0"), ("train.batch_size", "0"), ("train.learning_rate", "0"),
    ("train.learning_rate", "-0.1"), ("train.detection_mix_ratio", "1.5"),
    ("train.detection_mix_ratio", "-0.1"), ("features.dim", "4"),
    ("features.background_boxes", "-1"), ("targets.k_neg", "-1"), ("train.d_model", "0"),
    ("eval.nw_choices", "[]"), ("eval.nw_choices", "[2]"), ("eval.nw_choices", '["6"]'),
    ("eval.aggregation", '"avg"'), ("eval.aggregation", '""'),
    ("eval.fraction_negative", "1.5"), ("eval.fraction_negative", "1.0"),
    ("eval.fraction_negative", "-0.1"), ("eval.iou_threshold", "0"),
    ("eval.iou_threshold", "1.5"), ("eval.iou_threshold", "-0.5"),
    ("eval.benchmark_scenes", "0"), ("eval.benchmark_scenes", "-3"),
    ("descriptions.num_descriptions", "1"), ("descriptions.num_descriptions", "2"),
])
def test_bad_training_range_fails_before_any_stage(tmp_path, capsys, field, value):
    with pytest.raises(ConfigError, match=re.escape(field)):
        load_config(overrides=[(field, value)])
    out = tmp_path / "o"
    assert run_cli(["all", "--out", str(out), "--set", f"{field}={value}"]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_eval_range_edges_validate():
    for field, value in (("eval.aggregation", "mean"), ("eval.fraction_negative", "0"),
                         ("eval.iou_threshold", "1"), ("eval.benchmark_scenes", "1")):
        load_config(overrides=[(field, value)])


def test_num_descriptions_edges_validate():
    """No descriptions, or enough of them for targets.k_neg alternatives each."""
    for overrides in ([("descriptions.num_descriptions", "0")],
                      [("descriptions.num_descriptions", "3")],
                      [("descriptions.num_descriptions", "1"), ("targets.k_neg", "0")],
                      [("descriptions.num_descriptions", "2"), ("targets.k_neg", "1")]):
        load_config(overrides=overrides)


@pytest.mark.parametrize("value", ["weak-to-strong", "grounding_baseline", ""])
def test_unknown_labeler_strategy_fails_before_any_stage(tmp_path, capsys, value):
    with pytest.raises(ConfigError, match="labeler.strategy"):
        load_config(overrides=[("labeler.strategy", json.dumps(value))])
    out = tmp_path / "o"
    assert run_cli(["all", "--out", str(out), "--set", f"labeler.strategy={value}"]) == 2
    assert "labeler.strategy" in capsys.readouterr().err
    assert not out.exists()


def test_known_labeler_strategies_validate():
    for value in ("weak_to_strong", "grounding"):
        assert load_config(overrides=[("labeler.strategy", value)])["labeler"]["strategy"] == value


def test_threshold_p_flag(tmp_path):
    out = str(tmp_path / "o")
    code = run_cli(["gen", "--out", out, "--threshold-p", "0.7",
                    "--set", "descriptions.num_descriptions=3"])
    assert code == 0


def test_missing_artifact_exit_code(tmp_path):
    assert run_cli(["label", "--out", str(tmp_path / "empty")] + SMALL) == 3
    assert run_cli(["train", "--out", str(tmp_path / "empty")] + SMALL) == 3


def test_config_error_exit_code(tmp_path):
    assert run_cli(["gen", "--out", str(tmp_path / "o"),
                    "--set", "descriptions.target_length_words=1"]) == 2
    assert run_cli(["gen", "--out", str(tmp_path / "o"), "--set", "bogus=1"]) == 2
    assert run_cli(["gen", "--out", str(tmp_path / "o"), "--set", "pool=desk999"]) == 2


@pytest.mark.parametrize("field,value", [("descriptions.target_length_words", "28"),
                                         ("descriptions.target_length_words", "30"),
                                         ("eval.nw_choices", "[4, 28]")])
def test_length_the_pool_cannot_reach_fails_before_any_stage(tmp_path, capsys, field, value):
    """Gen, or eval's benchmark, would fail on such a length after earlier
    stages wrote their files; the config check rejects it before --out exists."""
    out = tmp_path / "o"
    assert run_cli(["all", "--out", str(out), "--set", f"{field}={value}"]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_lengths_the_pool_reaches_validate():
    longest = min(map(corpus.max_length_words, corpus.build_entity_pool("desk20")))
    defaults = load_config()
    assert defaults["descriptions"]["target_length_words"] <= longest
    assert max(defaults["eval"]["nw_choices"]) <= longest
    config = load_config(overrides=[("descriptions.target_length_words", str(longest)),
                                    ("eval.nw_choices", f"[3, {longest}]")])
    assert config["descriptions"]["target_length_words"] == longest


def test_parse_subcommand(capsys):
    assert run_cli(["parse", "an avocado on a cutting board"]) == 0
    out = capsys.readouterr().out
    assert "subject" in out and "non_subject" in out
    assert run_cli(["parse", "zzz unparseable"]) == 2


def test_unknown_ablation_is_a_config_error(tmp_path, capsys):
    assert cli.run("ablate:nope", load_config(output_dir=str(tmp_path / "o"))) == 2
    assert "ablate:nope" in capsys.readouterr().err


def test_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(pipeline, "build_description_corpus", broken)
    with pytest.raises(ValueError, match="internal"):
        cli.run("gen", load_config(output_dir=str(tmp_path / "o")))


@pytest.mark.parametrize("overrides,message", [
    (["descriptions.num_descriptions=0"], "requires a detection corpus"),
    (["descriptions.num_descriptions=2", "images_per_description=1"],
     "same-category alternatives"),
])
def test_unusable_corpus_is_a_config_error(tmp_path, capsys, overrides, message):
    args = [a for o in overrides for a in ("--set", o)]
    assert run_cli(["all", "--out", str(tmp_path / "o")] + args) == 2
    assert message in capsys.readouterr().err


def test_gen_with_zero_descriptions(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert run_cli(["gen", "--out", out, "--set", "descriptions.num_descriptions=0"]) == 0
    assert "warning" in capsys.readouterr().out
    assert open(os.path.join(out, "descriptions.jsonl")).read() == ""


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    code = cli.main(["all", "--out", out] + SMALL)
    assert code == 0
    return out


def test_pipeline_writes_all_artifacts(pipeline_dir):
    expected = ["descriptions.jsonl", "scenes.jsonl", "triplets.jsonl",
                "examples.jsonl", "detection_examples.jsonl", "model.ckpt",
                "model.vocab.json", "history.csv", "results.jsonl", "benchmark_scenes.jsonl",
                "benchmark_labels.jsonl", "report.json", "summary.json", "features.bin",
                "label_stats.json", "match_table.bin"]
    for name in expected:
        assert os.path.exists(os.path.join(pipeline_dir, name)), name
    for name in ("features", "results.bin", "benchmark_truth.bin"):
        assert not os.path.exists(os.path.join(pipeline_dir, name)), name
    for stage in ("gen", "scenes", "label", "targets", "train", "eval_scores", "eval"):
        manifest = storage.read_json(storage.manifest_path(pipeline_dir, stage))
        assert manifest["stage"] == stage
        for rel, digest in manifest["outputs"].items():
            assert storage.sha256_file(os.path.join(pipeline_dir, rel)) == digest


def test_report_has_required_fields(pipeline_dir):
    report = storage.read_json(os.path.join(pipeline_dir, "report.json"))
    for field in ("AP", "AP_categ", "AP_descr", "AP_descr_pos", "AP_descr_S",
                  "AP_descr_M", "AP_descr_L", "d3_full", "d3_pres", "d3_abs",
                  "bucket_counts", "config", "d3"):
        assert field in report
    assert report["config"]["interpolation"] == "all-point"


def test_results_lines_are_canonical_json(pipeline_dir, tmp_path):
    """Each results.jsonl line is exactly what json.dumps(row, sort_keys=True)
    writes for the row it holds. At threshold 0 every region is a detection."""
    out = tmp_path / "copy"
    shutil.copytree(pipeline_dir, out)
    assert run_cli(["eval", "--out", str(out), "--set", "eval.score_threshold=0.0"] + SMALL) == 0
    with open(out / "results.jsonl", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) >= 6
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)


def test_rerun_is_noop(pipeline_dir, capsys):
    before = storage.hash_tree(pipeline_dir)
    assert cli.main(["all", "--out", pipeline_dir] + SMALL) == 0
    out = capsys.readouterr().out
    assert out.count("up to date, skipping") >= 5
    assert storage.hash_tree(pipeline_dir) == before


def test_stage_reruns_after_config_change(pipeline_dir, capsys):
    args = [a if a != "train.epochs=3" else "train.epochs=4" for a in SMALL]
    assert cli.main(["train", "--out", pipeline_dir] + args) == 0
    out = capsys.readouterr().out
    assert "up to date" not in out
    # restore for other tests
    assert cli.main(["train", "--out", pipeline_dir] + SMALL) == 0


@pytest.fixture
def corrupt_copy(pipeline_dir, tmp_path):
    """A copy of the SMALL tree to damage; the original stays intact."""
    out = tmp_path / "copy"
    shutil.copytree(pipeline_dir, out)
    return out


def _truncate(path, keep):
    data = path.read_bytes()
    path.write_bytes(data[:keep(len(data))])


def test_half_length_checkpoint_is_an_artifact_error(corrupt_copy, capsys):
    _truncate(corrupt_copy / "model.ckpt", lambda n: n // 2)
    assert run_cli(["eval", "--out", str(corrupt_copy)] + SMALL) == 5
    err = capsys.readouterr().err
    assert "artifact error" in err and "model.ckpt" in err


@pytest.mark.parametrize("keep", [lambda n: n - 8, lambda n: 6, lambda n: n // 2],
                         ids=["short_payload", "short_header", "cut_in_half"])
def test_truncated_feature_file_is_an_artifact_error(corrupt_copy, capsys, keep):
    _truncate(corrupt_copy / "features.bin", keep)
    os.remove(storage.manifest_path(corrupt_copy, "train"))
    assert run_cli(["train", "--out", str(corrupt_copy)] + SMALL) == 5
    err = capsys.readouterr().err
    assert "artifact error" in err and "features.bin" in err


def test_deleted_feature_file_is_a_missing_artifact(corrupt_copy, capsys):
    os.remove(corrupt_copy / "features.bin")
    os.remove(storage.manifest_path(corrupt_copy, "train"))
    assert run_cli(["train", "--out", str(corrupt_copy)] + SMALL) == 3
    assert "features.bin" in capsys.readouterr().err


def test_truncated_feature_file_reruns_train_and_leaves_targets_current(corrupt_copy, capsys):
    """targets takes each scene's region count from scenes.jsonl and the
    config, so a damaged features.bin leaves it current; train reads the
    file and fails naming it."""
    _truncate(corrupt_copy / "features.bin", lambda n: n - 8)
    assert run_cli(["targets", "--out", str(corrupt_copy)] + SMALL) == 0
    assert "targets: up to date, skipping" in capsys.readouterr().out
    assert run_cli(["train", "--out", str(corrupt_copy)] + SMALL) == 5
    err = capsys.readouterr().err
    assert "artifact error" in err and "features.bin" in err


@pytest.mark.parametrize("stage", ["train"])
def test_feature_file_deleted_under_a_current_manifest_is_missing(corrupt_copy, capsys, stage):
    os.remove(corrupt_copy / "features.bin")
    assert run_cli([stage, "--out", str(corrupt_copy)] + SMALL) == 3
    assert "features.bin" in capsys.readouterr().err


def test_swapped_vocabulary_tokens_rerun_eval(corrupt_copy, capsys):
    assert run_cli(["eval", "--out", str(corrupt_copy)] + SMALL) == 0
    assert "eval: up to date, skipping" in capsys.readouterr().out
    path = corrupt_copy / "model.vocab.json"
    vocab = json.loads(path.read_text())
    vocab["tokens"][:2] = vocab["tokens"][1::-1]
    storage.write_json(path, vocab)
    assert run_cli(["eval", "--out", str(corrupt_copy)] + SMALL) == 0
    assert "up to date" not in capsys.readouterr().out


def test_cut_manifest_is_an_artifact_error(corrupt_copy, capsys):
    """A cut manifest, or one that is valid JSON of another shape, fails
    naming the file instead of crashing or silently re-running the stage."""
    path = corrupt_copy / "manifests" / "label.json"
    intact = path.read_bytes()
    manifest = json.loads(intact)
    shapes = [{**manifest, "outputs": list(manifest["outputs"])}, [manifest],
              {**manifest, "inputs": []}, {**manifest, "outputs": None}]
    for damage in [lambda: _truncate(path, lambda n: n // 2)] + [
            lambda shape=shape: storage.write_json(path, shape) for shape in shapes]:
        path.write_bytes(intact)
        damage()
        assert run_cli(["label", "--out", str(corrupt_copy)] + SMALL) == 5
        err = capsys.readouterr().err
        assert "artifact error" in err and os.path.join("manifests", "label.json") in err


@pytest.mark.parametrize("filename,stage", [
    ("descriptions.jsonl", "scenes"), ("scenes.jsonl", "label"),
    ("triplets.jsonl", "targets"),
])
def test_cut_jsonl_line_is_an_artifact_error(corrupt_copy, capsys, filename, stage):
    path = corrupt_copy / filename
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:len(lines[1]) // 2] + "\n"
    path.write_text("".join(lines))
    assert run_cli([stage, "--out", str(corrupt_copy)] + SMALL) == 5
    err = capsys.readouterr().err
    assert "artifact error" in err and f"{filename} line 2" in err


@pytest.mark.parametrize("damage", [lambda t: "2" + t[1:], lambda t: "x" + t[1:],
                                    lambda t: t[:-1], lambda t: t + "0"],
                         ids=["digit_2", "letter", "short", "long"])
def test_bad_example_target_string_is_an_artifact_error(corrupt_copy, capsys, damage):
    path = corrupt_copy / "examples.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    row = json.loads(lines[1])
    row["target"] = damage(row["target"])
    lines[1] = json.dumps(row, sort_keys=True) + "\n"
    path.write_text("".join(lines))
    assert run_cli(["train", "--out", str(corrupt_copy)] + SMALL) == 5
    err = capsys.readouterr().err
    assert "artifact error" in err and "examples.jsonl line 2" in err


def _edit_line_2(path, edit):
    """Apply edit(row) to the JSON row on line 2 of `path`."""
    lines = path.read_text().splitlines(keepends=True)
    row = json.loads(lines[1])
    edit(row)
    lines[1] = json.dumps(row, sort_keys=True) + "\n"
    path.write_text("".join(lines))


def _set_box_side(side, value):
    def edit(row):
        row["objects"][0]["box"][side] = value
    return edit


# Each edit leaves a scene that parses but that no stage can use.
_UNUSABLE_SCENES = {
    "repeated_instance_id": (
        lambda row: row["objects"][1].update(instance_id=row["objects"][0]["instance_id"]),
        "two objects share instance_id"),
    "zero_width": (_set_box_side(2, 0.0), "width or height is not above 0"),
    "negative_height": (_set_box_side(3, -0.1), "width or height is not above 0"),
    "unknown_referent": (lambda row: row["referent_ids"].append(10_000),
                         "referent 10000 names no object"),
    "unknown_relation_endpoint": (
        lambda row: row["relation_edges"].append([row["objects"][0]["instance_id"], "near",
                                                  10_000]),
        "names no object of the scene"),
}


@pytest.mark.parametrize("stage", ["label", "targets"])
@pytest.mark.parametrize("case", list(_UNUSABLE_SCENES))
def test_unusable_scene_is_an_artifact_error(corrupt_copy, capsys, case, stage):
    """A scenes.jsonl row with a repeated instance id, a box without area, or
    a referent or relation endpoint that names no object fails the stage
    that reads it, naming the file and the line."""
    edit, message = _UNUSABLE_SCENES[case]
    _edit_line_2(corrupt_copy / "scenes.jsonl", edit)
    assert run_cli([stage, "--out", str(corrupt_copy)] + SMALL) == 5
    err = capsys.readouterr().err
    assert "artifact error" in err and "scenes.jsonl line 2" in err and message in err


@pytest.mark.parametrize("filename", ["examples.jsonl", "detection_examples.jsonl"])
def test_example_token_outside_the_vocabulary_is_an_artifact_error(corrupt_copy, capsys,
                                                                    filename):
    """Training would read a token outside the pool's vocabulary as the
    unknown token; the train stage fails naming the file, the line and the
    token instead."""
    def edit(row):
        row["flat_tokens"][0] = "zeppelin"
    _edit_line_2(corrupt_copy / filename, edit)
    assert run_cli(["train", "--out", str(corrupt_copy)] + SMALL) == 5
    err = capsys.readouterr().err
    assert "artifact error" in err and f"{filename} line 2" in err
    assert "'zeppelin' is not in the vocabulary" in err


def _jsonl(rows) -> bytes:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode()


def _examples_jsonl(examples) -> bytes:
    return _jsonl(targets.example_to_json(ex.scene_id, ex.query, ex.target) for ex in examples)


def test_cli_artifacts_match_the_library(pipeline_dir, tmp_path):
    """The CLI's data artifacts for SMALL equal the library's objects at its
    defaults, serialized by the same writers."""
    def cli_bytes(name):
        with open(os.path.join(pipeline_dir, name), "rb") as fh:
            return fh.read()

    def written(name, writer, obj):
        writer(tmp_path / name, obj)
        return (tmp_path / name).read_bytes()

    bundle = pipeline.build_corpus("desk20", num_descriptions=3, target_length_words=10,
                                   images_per_description=2, seed=0)
    assert written("descriptions.jsonl", corpus.write_descriptions,
                   bundle.descriptions) == cli_bytes("descriptions.jsonl")
    assert written("scenes.jsonl", scenegen.write_scenes,
                   bundle.scenes) == cli_bytes("scenes.jsonl")
    assert written("features.bin", scenegen.write_features,
                   bundle.features) == cli_bytes("features.bin")
    assert list(scenegen.read_features(os.path.join(pipeline_dir, "features.bin"))) \
        == [scene.scene_id for scene in bundle.scenes]
    triplets = pipeline.label_corpus(bundle)
    assert _jsonl(map(labeling.triplet_to_json, triplets)) == cli_bytes("triplets.jsonl")
    assert _examples_jsonl(pipeline.build_detection_examples(bundle, seed=0)) \
        == cli_bytes("detection_examples.jsonl")
    examples = pipeline.build_training_examples(bundle, triplets, pipeline.FULL_VARIANT, seed=0)
    assert _examples_jsonl(examples) == cli_bytes("examples.jsonl")
    # SMALL's eval settings: 6 scenes, the config's default length choices
    bench = pipeline.default_benchmark(
        bundle.pool, 0, 6, config=scenegen.BenchmarkConfig(nw_choices=(4, 6, 8, 10, 12, 10, 12)),
        lexicon=bundle.lexicon)
    assert written("benchmark_scenes.jsonl", scenegen.write_scenes,
                   bench.scenes) == cli_bytes("benchmark_scenes.jsonl")
    assert written("benchmark_labels.jsonl", evalkit.write_description_labels,
                   bench.description_labels) == cli_bytes("benchmark_labels.jsonl")
    # The CLI's own model, run on that benchmark at the default eval settings
    e = cli.DEFAULT_CONFIG["eval"]
    results = pipeline.run_model_on_benchmark(cli._load_model(pipeline_dir), bench,
                                              e["score_threshold"], bundle.lexicon,
                                              agg=e["aggregation"])
    assert written("results.jsonl", evalkit.write_results, results) == cli_bytes("results.jsonl")
    assert written("match_table.bin", evalkit.write_match_table,
                   evalkit.match_table(results, bench)) == cli_bytes("match_table.bin")


def test_region_count_is_the_feature_rows_of_every_default_scene(tmp_path):
    """The targets stage counts each scene's regions as its objects plus
    features.background_boxes; for every scene of the default config that
    is the number of rows features.bin holds for it, and at other
    background counts the number render_features() makes."""
    config = load_config()
    pool, lexicon = cli._pool_and_lexicon(config)
    d = config["descriptions"]
    descriptions = pipeline.build_description_corpus(pool, d["num_descriptions"],
                                                     d["target_length_words"], config["seed"])
    scenes, features = pipeline.build_scene_corpus(
        pool, descriptions, config["images_per_description"], config["seed"],
        cli._distractor_config(config), cli._feature_config(config), lexicon)
    scenegen.write_features(tmp_path / "features.bin", features)
    rows = scenegen.read_features(tmp_path / "features.bin")
    background = config["features"]["background_boxes"]
    assert len(scenes) == len(rows) == 3200
    assert [scenegen.region_count(scene, background) for scene in scenes] == [
        rows[scene.scene_id].features.shape[0] for scene in scenes]
    for b in (0, 3):
        assert [scenegen.region_count(scene, b) for scene in scenes[:20]] == [
            scenegen.render_features(scene, 0, b=b).features.shape[0] for scene in scenes[:20]]


def test_new_background_box_count_reruns_targets(pipeline_dir, corrupt_copy, capsys):
    """scenes.jsonl does not change with features.background_boxes, so the
    key alone makes targets run again, and it writes the examples the
    library builds over features rendered with the new count."""
    args = SMALL + ["--set", "features.background_boxes=3"]
    assert run_cli(["targets", "--out", str(corrupt_copy)] + args) == 0
    assert "up to date" not in capsys.readouterr().out
    bundle = pipeline.build_corpus("desk20", num_descriptions=3, target_length_words=10,
                                   images_per_description=2, seed=0,
                                   features=pipeline.FeatureConfig(background_boxes=3))
    triplets = pipeline.label_corpus(bundle)
    for name, examples in (
            ("examples.jsonl", pipeline.build_training_examples(bundle, triplets, seed=0)),
            ("detection_examples.jsonl", pipeline.build_detection_examples(bundle, seed=0))):
        got = (corrupt_copy / name).read_bytes()
        assert got == _examples_jsonl(examples), name
        with open(os.path.join(pipeline_dir, name), "rb") as fh:
            assert got != fh.read(), name


MANIFEST_STAGES = [name for name, stages in cli.STAGES.items()
                   if any(stage.manifest for stage in stages)]


class _RecordingConfig(dict):
    """A config that records the dotted path of every key read through it."""

    def __init__(self, data, read=None, prefix=""):
        super().__init__(data)
        self.read = set() if read is None else read
        self.prefix = prefix

    def __getitem__(self, key):
        path = self.prefix + key
        self.read.add(path)
        value = super().__getitem__(key)
        return _RecordingConfig(value, self.read, path + ".") if isinstance(value, dict) else value

    def get(self, key, default=None):
        self.read.add(self.prefix + key)
        return self[key] if key in self else default


def _keys_at_declaration(read, keys):
    """The declared keys that the read paths reach, plus every read path that
    no declared key covers (a parent of a declared key is not a read of it)."""
    def covers(key, path):
        return path == key or path.startswith(key + ".")
    reached = {key for key in keys if any(covers(key, path) for path in read)}
    stray = {path for path in read
             if not any(covers(key, path) or key.startswith(path + ".") for key in keys)}
    return reached | stray


def _run_recorded(monkeypatch, name, config, out):
    """Run one command with its stages' bodies and file reads recorded.
    Returns, by stage name, the config keys each body that ran read and the
    files each stage opened for reading, its runner's hashing included."""
    keys_read, opened, current = {}, {}, [None]
    real_input_hashes = cli._input_hashes

    def input_hashes(out_dir, stage, digests):
        current[0] = stage.name
        return real_input_hashes(out_dir, stage, digests)

    def recorded(stage):
        def body(config, out_dir, workers):
            recording = _RecordingConfig(config)
            stage.body(recording, out_dir, workers)
            keys_read[stage.name] = recording.read
        return dataclasses.replace(stage, body=body)

    real_open = builtins.open

    def spy_open(file, mode="r", *args, **kwargs):
        if not set(mode) & set("wax+"):
            opened.setdefault(current[0], set()).add(os.path.relpath(os.fspath(file), out))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setitem(cli.STAGES, name, tuple(recorded(stage) for stage in cli.STAGES[name]))
    monkeypatch.setattr(cli, "_input_hashes", input_hashes)
    monkeypatch.setattr(builtins, "open", spy_open)
    assert cli.run(name, config) == 0
    monkeypatch.undo()
    return keys_read, opened


@pytest.mark.parametrize("name", MANIFEST_STAGES)
def test_stage_reads_exactly_its_declaration(corrupt_copy, monkeypatch, name):
    """Each stage of a command opens exactly its declared inputs, reads
    exactly its declared config keys and records exactly its declared
    outputs, apart from its manifest and the outputs it hashes. The command
    runs cold, with none of its manifests, and then warm once for each later
    stage: the stages before it up to date and skipped, it and the ones after
    it run."""
    out = str(corrupt_copy)
    stages = cli.STAGES[name]
    config = load_config(overrides=[tuple(a.split("=", 1)) for a in SMALL[1::2]],
                         output_dir=out)
    for first in range(len(stages)):
        for stage in stages[first:]:
            os.remove(storage.manifest_path(out, stage.name))
        keys_read, opened = _run_recorded(monkeypatch, name, config, out)
        assert set(keys_read) == {stage.name for stage in stages[first:]}
        for stage in stages:
            written = storage.read_json(storage.manifest_path(out, stage.name))["outputs"]
            assert set(written) == set(stage.outputs), stage.name
            reads = {p for p in opened[stage.name]
                     if not p.startswith("manifests") and p not in written}
            assert reads == set(stage.inputs), stage.name
        for stage in stages[first:]:
            assert _keys_at_declaration(keys_read[stage.name], stage.keys) == set(stage.keys)


def _corrupt(path):
    """Change the byte in the middle of the file, or write one into an empty file."""
    data = bytearray(path.read_bytes()) or bytearray(b"\0")
    mid = len(data) // 2
    data[mid] = 1 if data[mid] == 0 else 0
    path.write_bytes(bytes(data))


# Feature files that manifests written before features.bin declare in its
# place: the index and the first scene's file.
OLD_FEATURE_FILES = ("features/index.jsonl", "features/scene_000000.bin")


def _touches(stage, filename):
    """Whether the stage reads or writes the file, or did when the features
    were one file per scene."""
    files = {*stage.inputs, *stage.outputs}
    return filename in files or (filename in OLD_FEATURE_FILES and "features.bin" in files)


@pytest.mark.parametrize("name,filename", list(dict.fromkeys(
    [(name, filename) for name in MANIFEST_STAGES
     for stage in cli.STAGES[name] for filename in (*stage.inputs, *stage.outputs)]
    + [(name, filename) for name in MANIFEST_STAGES
       if any("features.bin" in (*stage.inputs, *stage.outputs) for stage in cli.STAGES[name])
       for filename in OLD_FEATURE_FILES])))
def test_corrupt_declared_input_reruns_or_is_an_artifact_error(corrupt_copy, capsys,
                                                               name, filename):
    """A damaged file that a command's stage reads or writes makes that stage
    and the ones after it run again, or fails naming the file; only the
    stages before it may be reused. The old feature files are damaged in a
    tree whose manifests still declare them, as one written before
    features.bin and brought up to date by scenes alone."""
    assert run_cli([name, "--out", str(corrupt_copy)] + SMALL) == 0
    assert f"{name}: up to date, skipping" in capsys.readouterr().out
    if filename in OLD_FEATURE_FILES:
        _declare_feature_files(corrupt_copy, _write_feature_files(corrupt_copy))
        if name != "scenes":
            assert run_cli(["scenes", "--out", str(corrupt_copy)] + SMALL) == 0
        capsys.readouterr()
    _corrupt(corrupt_copy / filename)
    code = run_cli([name, "--out", str(corrupt_copy)] + SMALL)
    captured = capsys.readouterr()
    if code == 5:
        assert os.path.basename(filename) in captured.err
    else:
        stages = cli.STAGES[name]
        first = next(i for i, stage in enumerate(stages) if _touches(stage, filename))
        assert code == 0
        assert [line for line in captured.out.splitlines() if "up to date" in line] == [
            f"{name}: {stage.name.removeprefix(name + '_')} up to date, reused"
            for stage in stages[:first]]


# Every file either half of eval reads, and the scoring half's output.
EVAL_FILES = list(dict.fromkeys([*(filename for stage in cli.STAGES["eval"]
                                   for filename in stage.inputs),
                                 *cli.STAGES["eval"][0].outputs]))
AT_075 = ["--set", "eval.iou_threshold=0.75"]
# What the scoring half writes besides its one output; no stage reads them.
EXPORTS = ("results.jsonl", "benchmark_scenes.jsonl", "benchmark_labels.jsonl")
# At score threshold 0 every region is a detection, so results.jsonl has a
# line for every label on every scene.
EVERY_REGION = ["--set", "eval.score_threshold=0.0"]


@pytest.fixture
def benchmark_calls(monkeypatch):
    """The number of make_benchmark calls so far, counted at the binding
    that pipeline.default_benchmark calls."""
    calls = []
    real = pipeline.make_benchmark

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "make_benchmark", counted)
    return calls


@pytest.mark.parametrize("filename", EVAL_FILES)
@pytest.mark.parametrize("iou", [[], AT_075], ids=["same_iou", "new_iou"])
def test_corrupt_eval_input_rebuilds_the_scores(corrupt_copy, capsys, benchmark_calls,
                                                filename, iou):
    """Eval reuses the scores only while every input of both halves and every
    score file still hashes as recorded, whether or not the IoU threshold
    changed; once the scores rebuild, matching runs too."""
    assert run_cli(["eval", "--out", str(corrupt_copy)] + SMALL + EVERY_REGION) == 0
    capsys.readouterr()
    _corrupt(corrupt_copy / filename)
    code = run_cli(["eval", "--out", str(corrupt_copy)] + SMALL + EVERY_REGION + iou)
    captured = capsys.readouterr()
    if code == 5:
        assert os.path.basename(filename) in captured.err
    else:
        assert code == 0 and "up to date" not in captured.out and "AP=" in captured.out
        assert len(benchmark_calls) == 2


def test_new_iou_reuses_the_scores(pipeline_dir, tmp_path, capsys, benchmark_calls):
    """Eval at IoU 0.5 and then at 0.75 matches again without rebuilding the
    benchmark or running the model, and writes what a fresh eval at 0.75
    writes."""
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    shutil.copytree(pipeline_dir, reused)
    assert run_cli(["eval", "--out", str(reused)] + SMALL + EVERY_REGION) == 0
    at_05 = (reused / "report.json").read_bytes()
    assert len(benchmark_calls) == 1
    assert run_cli(["eval", "--out", str(reused)] + SMALL + EVERY_REGION + AT_075) == 0
    assert len(benchmark_calls) == 1
    out = capsys.readouterr().out
    assert "eval: scores up to date, reused" in out and "eval: up to date" not in out
    assert (reused / "report.json").read_bytes() != at_05
    shutil.copytree(pipeline_dir, fresh)
    for name in ("eval_scores", "eval"):
        os.remove(storage.manifest_path(fresh, name))
    assert run_cli(["eval", "--out", str(fresh)] + SMALL + EVERY_REGION + AT_075) == 0
    assert len(benchmark_calls) == 2
    for name in ("report.json", "results.jsonl", "benchmark_scenes.jsonl",
                 "benchmark_labels.jsonl"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
    assert json.loads((reused / "report.json").read_text())["AP_categ"] > 0


def test_an_edited_export_leaves_the_scores_current(pipeline_dir, tmp_path, capsys):
    """No stage reads the exports, so no manifest hashes them: after a cold
    eval, an edit to results.jsonl does not make a re-match at a new IoU
    threshold score again. The edit stays, and the report is a fresh eval's."""
    edited, fresh = tmp_path / "edited", tmp_path / "fresh"
    shutil.copytree(pipeline_dir, edited)
    assert run_cli(["eval", "--out", str(edited)] + SMALL + EVERY_REGION) == 0
    with open(edited / "results.jsonl", "ab") as fh:
        fh.write(b"x")
    results = (edited / "results.jsonl").read_bytes()
    capsys.readouterr()
    assert run_cli(["eval", "--out", str(edited)] + SMALL + EVERY_REGION + AT_075) == 0
    assert "eval: scores up to date, reused" in capsys.readouterr().out
    assert (edited / "results.jsonl").read_bytes() == results
    shutil.copytree(pipeline_dir, fresh)
    for name in ("eval_scores", "eval"):
        os.remove(storage.manifest_path(fresh, name))
    assert run_cli(["eval", "--out", str(fresh)] + SMALL + EVERY_REGION + AT_075) == 0
    assert (edited / "report.json").read_bytes() == (fresh / "report.json").read_bytes()


@pytest.mark.parametrize("retrain,args", [
    (False, ["--set", "eval.score_threshold=0.3"]),
    (False, ["--set", "eval.aggregation=mean"]),
    (True, ["--set", "seed=1"]),
    (True, ["--set", "train.epochs=4"]),
], ids=["score_threshold", "aggregation", "retrain_seed", "retrain_epochs"])
def test_scoring_setting_or_new_model_rebuilds_the_scores(corrupt_copy, capsys, benchmark_calls,
                                                          retrain, args):
    """A changed scoring setting, or a model retrained under the eval's
    unchanged settings, scores again even when only re-matching was asked for."""
    if retrain:
        assert run_cli(["train", "--out", str(corrupt_copy)] + SMALL + args) == 0
        capsys.readouterr()
        args = []
    assert run_cli(["eval", "--out", str(corrupt_copy)] + SMALL + args + AT_075) == 0
    assert len(benchmark_calls) == 1
    assert "up to date" not in capsys.readouterr().out


def _record_as_scored(out, filename) -> None:
    """Record the file's hash as the scoring half's output, as if it was
    damaged before the eval_scores manifest was written."""
    manifest = storage.read_json(storage.manifest_path(out, "eval_scores"))
    manifest["outputs"][filename] = storage.sha256_file(out / filename)
    storage.write_json(storage.manifest_path(out, "eval_scores"), manifest)


@pytest.mark.parametrize("damage", [lambda raw: raw[:len(raw) // 2], lambda raw: raw[:-8],
                                    lambda raw: b"JUNK" + raw[4:]],
                         ids=["truncated", "last_8_bytes", "magic"])
def test_cut_line_in_a_score_file_is_an_artifact_error(corrupt_copy, capsys, damage):
    """The score file that matching reads, match_table.bin, cut in half,
    without its last 8 bytes or with a bad magic before its manifest was
    written, counts as current; matching from it fails and names the file."""
    assert run_cli(["eval", "--out", str(corrupt_copy)] + SMALL + EVERY_REGION) == 0
    path = corrupt_copy / "match_table.bin"
    path.write_bytes(damage(path.read_bytes()))
    _record_as_scored(corrupt_copy, "match_table.bin")
    assert run_cli(["eval", "--out", str(corrupt_copy)] + SMALL + EVERY_REGION + AT_075) == 5
    err = capsys.readouterr().err
    assert "artifact error" in err and "match_table.bin" in err


def test_task_of_a_pool_past_the_last_is_an_artifact_error(corrupt_copy, capsys):
    """Matching reads labels only as the pool indices of match_table.bin, so
    the clash a ground-truth table could carry, one label id for two labels,
    shows there as a task of a pool the table does not have. Recorded as the
    scoring half's output, such a table would index past the pools;
    matching rejects it and names the file."""
    assert run_cli(["eval", "--out", str(corrupt_copy)] + SMALL + EVERY_REGION) == 0
    path = corrupt_copy / "match_table.bin"
    counts, columns = storage.read_table(path, evalkit.MATCH_TABLE)
    assert len(columns[4])
    columns[4][-1] = counts[0]  # the last task's pool: one past the last pool
    storage.write_table(path, evalkit.MATCH_TABLE, counts, [[column] for column in columns])
    _record_as_scored(corrupt_copy, "match_table.bin")
    assert run_cli(["eval", "--out", str(corrupt_copy)] + SMALL + EVERY_REGION + AT_075) == 5
    err = capsys.readouterr().err
    assert "artifact error" in err and "match_table.bin" in err and "pool indices below" in err


def test_a_rematch_reads_only_the_match_table(corrupt_copy, monkeypatch):
    """A re-match at a new IoU threshold opens no artifact for reading but
    match_table.bin, apart from the manifests and the files the runner
    hashes to verify them; in particular none of the scoring half's JSON
    records."""
    assert run_cli(["eval", "--out", str(corrupt_copy)] + SMALL) == 0
    opened, hashing = set(), []
    real_open, real_sha = builtins.open, storage.sha256_file

    def spy_sha(path):
        hashing.append(path)
        try:
            return real_sha(path)
        finally:
            hashing.pop()

    def spy_open(file, mode="r", *args, **kwargs):
        if not hashing and not set(mode) & set("wax+"):
            opened.add(os.path.relpath(os.fspath(file), corrupt_copy))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(storage, "sha256_file", spy_sha)
    monkeypatch.setattr(builtins, "open", spy_open)
    assert run_cli(["eval", "--out", str(corrupt_copy)] + SMALL + AT_075) == 0
    monkeypatch.undo()
    assert {name for name in opened if not name.startswith("manifests")} == {"match_table.bin"}
    assert json.loads((corrupt_copy / "report.json").read_text())["config"]["iou_threshold"] == 0.75


def test_matching_report_is_the_report_of_the_json_export(corrupt_copy):
    """On a tree with a detection for every region, the report that matching
    writes from match_table.bin equals omnilabel_report
    of the JSON exports at IoU 0.5, 0.75 and 1.0: results.jsonl, and the
    benchmark rebuilt from benchmark_scenes.jsonl and benchmark_labels.jsonl
    with each absence flag from the parse of its text. Re-matching leaves
    every score file byte-identical."""
    out = corrupt_copy
    pool = corpus.build_entity_pool("desk20")
    lexicon = langparse.Lexicon.from_categories(pool)
    score_files = (*cli.STAGES["eval"][0].outputs, *EXPORTS)
    written = {}
    for thr in (0.5, 0.75, 1.0):
        iou = ["--set", f"eval.iou_threshold={thr}"]
        assert run_cli(["eval", "--out", str(out)] + SMALL + EVERY_REGION + iou) == 0
        files = {name: (out / name).read_bytes() for name in score_files}
        assert files == written or not written
        written = files
        scenes = tuple(scenegen.read_scenes(out / "benchmark_scenes.jsonl"))
        labels = storage.read_jsonl(out / "benchmark_labels.jsonl", lambda row: row)
        bench = evalkit.BenchmarkInstance(
            scene_ids=tuple(scene.scene_id for scene in scenes),
            category_labels=evalkit.category_labels(pool, scenes),
            description_labels=tuple(evalkit.DescriptionLabel(
                row["label_id"], row["scene_id"], row["text"],
                tuple(map(tuple, row["gt_boxes"])), len(row["text"].split()),
                langparse.is_absence(langparse.parse(row["text"], lexicon))) for row in labels))
        assert any(label.absent for label in bench.description_labels)
        rows = storage.read_jsonl(out / "results.jsonl", lambda row: row)
        columns = evalkit.ResultColumns.from_rows(
            [(row["label_id"], row["scene_id"]) for row in rows],
            [np.array([det["box"] for det in row["detections"]], dtype=float).reshape(-1, 4)
             for row in rows],
            [np.array([det["score"] for det in row["detections"]], dtype=float) for row in rows])
        want = evalkit.omnilabel_report(columns, bench, iou_threshold=thr).to_json()
        want["d3"] = {"full": want["d3_full"], "pres": want["d3_pres"], "abs": want["d3_abs"]}
        assert (out / "report.json").read_text() == json.dumps(want, sort_keys=True, indent=2) + "\n"
        assert want["config"]["iou_threshold"] == thr and want["AP_categ"] > 0
        assert want["AP_descr"] > 0


def test_report_reads_the_recall_the_label_stage_recorded(corrupt_copy, monkeypatch):
    opened = set()
    real_open = builtins.open

    def spy_open(file, mode="r", *args, **kwargs):
        if "r" in mode:
            opened.add(os.path.relpath(os.fspath(file), corrupt_copy))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy_open)
    assert run_cli(["report", "--out", str(corrupt_copy)] + SMALL) == 0
    monkeypatch.undo()
    assert opened == {"report.json", "label_stats.json", "history.csv"}
    recall = storage.read_json(corrupt_copy / "label_stats.json")["label_recall_mean"]
    assert storage.read_json(corrupt_copy / "summary.json")["label_recall_mean"] == recall


def test_tree_from_before_label_stats_and_the_table_reruns_label_and_scoring(
        pipeline_dir, corrupt_copy, capsys):
    """A tree whose label and eval_scores manifests were written before
    label_stats.json and match_table.bin existed runs those stages again
    instead of skipping them, and ends as a fresh run's tree."""
    fresh = storage.hash_tree(pipeline_dir)
    out = corrupt_copy
    for name in ("label_stats.json", "match_table.bin"):
        os.remove(out / name)
    for stage, dropped in (("label", ("label_stats.json",)),
                           ("eval_scores", ("match_table.bin",))):
        manifest = storage.read_json(storage.manifest_path(out, stage))
        for name in dropped:
            del manifest["outputs"][name]
        storage.write_json(storage.manifest_path(out, stage), manifest)
    manifest = storage.read_json(storage.manifest_path(out, "eval"))
    manifest["inputs"] = {"results.jsonl": storage.sha256_file(out / "results.jsonl")}
    storage.write_json(storage.manifest_path(out, "eval"), manifest)
    assert run_cli(["report", "--out", str(out)] + SMALL) == 3
    assert "label_stats.json" in capsys.readouterr().err
    assert run_cli(["all", "--out", str(out)] + SMALL) == 0
    printed = capsys.readouterr().out
    assert "label: wrote" in printed and "eval: scored" in printed
    for name in ("gen", "scenes", "targets", "train"):
        assert f"{name}: up to date, skipping" in printed
    assert storage.hash_tree(out) == fresh


def test_tree_with_the_packed_eval_records_rescores_once_and_keeps_them(
        pipeline_dir, corrupt_copy, capsys, monkeypatch):
    """An eval_scores manifest written when the scoring half also wrote
    results.bin and benchmark_truth.bin records more than the stage's
    declared outputs, so the scores run once more. The leftover files stay
    as they are, and a re-match at a new IoU threshold then reuses the
    scores without hashing them."""
    fresh = storage.hash_tree(pipeline_dir)
    out = corrupt_copy
    leftovers = {"results.bin": b"GDRT old detections", "benchmark_truth.bin": b"GDBT old truth"}
    manifest = storage.read_json(storage.manifest_path(out, "eval_scores"))
    for name, data in leftovers.items():
        (out / name).write_bytes(data)
        manifest["outputs"][name] = storage.sha256_file(out / name)
    storage.write_json(storage.manifest_path(out, "eval_scores"), manifest)
    assert run_cli(["eval", "--out", str(out)] + SMALL) == 0
    printed = capsys.readouterr().out
    assert "eval: scored" in printed and "up to date" not in printed
    tree = storage.hash_tree(out)
    assert {rel: digest for rel, digest in tree.items() if rel not in leftovers} == fresh
    assert {name: (out / name).read_bytes() for name in leftovers} == leftovers
    recorded = storage.read_json(storage.manifest_path(out, "eval_scores"))["outputs"]
    assert set(recorded) == set(cli.STAGES["eval"][0].outputs)
    hashed = []
    real_sha = storage.sha256_file

    def spy(path):
        hashed.append(os.path.basename(path))
        return real_sha(path)

    monkeypatch.setattr(storage, "sha256_file", spy)
    assert run_cli(["eval", "--out", str(out)] + SMALL + AT_075) == 0
    assert "eval: scores up to date, reused" in capsys.readouterr().out
    assert "match_table.bin" in hashed and not set(hashed) & set(leftovers)
    assert {name: (out / name).read_bytes() for name in leftovers} == leftovers


def _write_feature_files(out) -> dict:
    """Replace features.bin with the per-scene feature files and the index
    that scenes wrote before features.bin existed; their hashes by path."""
    written = {}
    os.makedirs(out / "features")
    with open(out / "features" / "index.jsonl", "w", encoding="utf-8") as index:
        for scene_id, rf in scenegen.read_features(out / "features.bin").items():
            name = f"features/scene_{scene_id:06d}.bin"
            (out / name).write_bytes(struct.pack("<ii", *rf.features.shape)
                                     + rf.features.astype("<f8").tobytes())
            written[name] = storage.sha256_file(out / name)
            index.write(json.dumps({"file": name, "noise_seed": rf.noise_seed,
                                    "proposals": [list(p) for p in rf.proposals],
                                    "scene_id": scene_id}, sort_keys=True) + "\n")
    os.remove(out / "features.bin")
    return {"features/index.jsonl": storage.sha256_file(out / "features" / "index.jsonl"),
            **written}


def _declare_feature_files(out, feature_files):
    """List the feature files in the scenes, targets and train manifests in
    place of features.bin, as those manifests did before it existed; the
    targets stage read them then, and reads no features now."""
    for stage, key in (("scenes", "outputs"), ("targets", "inputs"), ("train", "inputs")):
        manifest = storage.read_json(storage.manifest_path(out, stage))
        manifest[key].pop("features.bin", None)
        manifest[key].update(feature_files)
        storage.write_json(storage.manifest_path(out, stage), manifest)


def test_tree_with_feature_files_reruns_scenes_targets_and_train(pipeline_dir, corrupt_copy,
                                                                  capsys):
    """A tree written when the features were one file per scene plus an
    index, each listed in the scenes, targets and train manifests, runs
    those stages again and ends as a fresh run's tree; the old feature
    files are left where they are and are not read."""
    fresh = storage.hash_tree(pipeline_dir)
    out = corrupt_copy
    feature_files = _write_feature_files(out)
    _declare_feature_files(out, feature_files)
    assert run_cli(["all", "--out", str(out)] + SMALL) == 0
    printed = capsys.readouterr().out
    for line in ("scenes: wrote", "targets: wrote", "triplet examples, loss"):
        assert line in printed
    for name in ("gen", "label", "eval"):
        assert f"{name}: up to date, skipping" in printed
    tree = storage.hash_tree(out)
    for name in ("model.ckpt", "report.json", "summary.json", "features.bin"):
        assert tree[name] == fresh[name], name
    assert {rel for rel in tree if rel.startswith("features" + os.sep)} == {
        os.path.normpath(rel) for rel in feature_files}
    assert {rel: h for rel, h in tree.items() if not rel.startswith("features" + os.sep)} == fresh


def _write_version_1_checkpoint(path, params):
    """model.ckpt as written before version 2: magic, u16 version 1, then per
    block its u32 name length, name, u32 rows and cols and float64 data."""
    with open(path, "wb") as fh:
        fh.write(b"WSCL" + struct.pack("<H", 1))
        for name, block in sorted(params.items()):
            fh.write(struct.pack("<I", len(name)) + name.encode()
                     + struct.pack("<II", *block.shape) + block.astype("<f8").tobytes())


def test_tree_with_a_version_1_checkpoint_retrains_once_it_is_deleted(pipeline_dir, corrupt_copy,
                                                                     capsys):
    """A tree trained before version 2 skips train; once the scoring half of
    eval has to run again, eval fails naming model.ckpt. Deleting the file
    retrains it, and the tree ends as a fresh run's."""
    fresh = storage.hash_tree(pipeline_dir)
    out = corrupt_copy
    path = out / "model.ckpt"
    vocab = Vocabulary(tuple(storage.read_json(out / "model.vocab.json")["tokens"]))
    _write_version_1_checkpoint(path, load_checkpoint(path, vocab).params)
    for stage, key in (("train", "outputs"), ("eval_scores", "inputs")):
        manifest = storage.read_json(storage.manifest_path(out, stage))
        manifest[key]["model.ckpt"] = storage.sha256_file(path)
        storage.write_json(storage.manifest_path(out, stage), manifest)
    assert run_cli(["train", "--out", str(out)] + SMALL) == 0
    assert "train: up to date, skipping" in capsys.readouterr().out
    os.remove(storage.manifest_path(out, "eval_scores"))
    assert run_cli(["eval", "--out", str(out)] + SMALL) == 5
    err = capsys.readouterr().err
    assert "artifact error" in err and "model.ckpt" in err and "version 1" in err
    os.remove(path)
    assert run_cli(["all", "--out", str(out)] + SMALL) == 0
    assert "triplet examples, loss" in capsys.readouterr().out
    assert storage.hash_tree(out) == fresh


@pytest.mark.parametrize("commands,before,args", [
    (cli.PIPELINE_STAGES, None, []), (cli.PIPELINE_STAGES, None, AT_075),
    (cli.PIPELINE_STAGES, "eval_scores", []), (cli.PIPELINE_STAGES, "eval", []),
    (("all",), None, []), (("all",), None, AT_075), (("all",), "targets", []),
], ids=["warm", "new_iou", "scores_rerun", "matching_rerun", "all_warm", "all_new_iou",
        "all_targets_rerun"])
def test_a_command_hashes_each_file_at_most_once(corrupt_copy, monkeypatch, commands, before,
                                                 args):
    """The output hashes a stage verifies or records serve as the input
    hashes of the stages after it in the same command; `all` shares them
    across all seven commands."""
    if before:
        os.remove(storage.manifest_path(corrupt_copy, before))
    hashed = []
    real_sha = storage.sha256_file

    def spy(path):
        hashed.append(os.path.relpath(path, corrupt_copy))
        return real_sha(path)

    monkeypatch.setattr(storage, "sha256_file", spy)
    for name in commands:
        hashed.clear()
        assert run_cli([name, "--out", str(corrupt_copy)] + SMALL + args) == 0
        assert len(hashed) == len(set(hashed)), name
        if name in ("eval", "all"):
            assert "match_table.bin" in hashed and not set(hashed) & set(EXPORTS)
        if name == "all":
            assert "features.bin" in hashed and "scenes.jsonl" in hashed


def test_commands_in_one_process_read_each_settled_file_once(corrupt_copy, monkeypatch):
    """The seven commands run one at a time in one process, as a script
    calling cli.run does, on a tree older than the settle window: each
    artifact is opened for hashing at most once, and no export at all."""
    out = str(corrupt_copy)
    config = load_config(overrides=[tuple(a.split("=", 1)) for a in SMALL[1::2]],
                         output_dir=out)
    opened, hashing = collections.Counter(), []
    real_open, real_sha = builtins.open, storage.sha256_file

    def spy_sha(path):
        hashing.append(path)
        try:
            return real_sha(path)
        finally:
            hashing.pop()

    def spy_open(file, *args, **kwargs):
        if hashing:
            opened[os.path.relpath(os.fspath(file), out)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(storage, "_DIGESTS", {})
    monkeypatch.setattr(storage, "time_ns", lambda: time.time_ns() + 3600 * 10**9)
    monkeypatch.setattr(storage, "sha256_file", spy_sha)
    monkeypatch.setattr(builtins, "open", spy_open)
    for name in cli.PIPELINE_STAGES:
        assert cli.run(name, config) == 0
    monkeypatch.undo()
    assert max(opened.values()) == 1, opened
    assert {"scenes.jsonl", "features.bin", "model.ckpt", "match_table.bin"} <= set(opened)
    assert not set(opened) & set(EXPORTS)


def test_stage_lists_match_the_benchmark(monkeypatch):
    """gdbench keeps its own copies of the stage order and of the stages
    that write manifests; they must follow the CLI's."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "gdbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("gdbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look the module up
    spec.loader.exec_module(workloads)
    assert cli.PIPELINE_STAGES == workloads.ALL_STAGES
    assert tuple(MANIFEST_STAGES) == workloads.MANIFEST_STAGES


def test_deterministic_trees(tmp_path_factory):
    trees = []
    for name in ("a", "b"):
        out = str(tmp_path_factory.mktemp(f"det_{name}"))
        assert cli.main(["all", "--out", out] + SMALL) == 0
        trees.append(storage.hash_tree(out))
    assert trees[0] == trees[1]


def test_worker_fanout_matches_sequential(tmp_path_factory):
    seq = str(tmp_path_factory.mktemp("seq"))
    par = str(tmp_path_factory.mktemp("par"))
    for out, workers in ((seq, "1"), (par, "2")):
        assert cli.main(["gen", "--out", out, "--workers", workers,
                         "--set", "descriptions.num_descriptions=3"]) == 0
        assert cli.main(["scenes", "--out", out, "--workers", workers,
                         "--set", "descriptions.num_descriptions=3",
                         "--set", "images_per_description=2"]) == 0
    a, b = storage.hash_tree(seq), storage.hash_tree(par)
    assert a == b


def test_ablate_length_writes_monotone_table(tmp_path, capsys):
    out = str(tmp_path / "abl")
    assert cli.main(["ablate", "length", "--out", out,
                     "--set", "descriptions.num_descriptions=10"]) == 0
    rows = storage.read_json(os.path.join(out, "ablate", "length", "length.json"))
    assert [r["target_length_words"] for r in rows] == [6, 8, 10, 12]
    nouns = [r["mean_nouns"] for r in rows]
    adjs = [r["mean_adjectives"] for r in rows]
    assert nouns == sorted(nouns)
    assert adjs == sorted(adjs)


def test_label_worker_fanout_matches_sequential(tmp_path_factory):
    outs = []
    for workers in ("1", "2"):
        out = str(tmp_path_factory.mktemp(f"lab{workers}"))
        args = ["--out", out, "--workers", workers,
                "--set", "descriptions.num_descriptions=3",
                "--set", "images_per_description=1"]
        assert cli.main(["gen"] + args) == 0
        assert cli.main(["scenes"] + args) == 0
        assert cli.main(["label"] + args) == 0
        outs.append(storage.sha256_file(os.path.join(out, "triplets.jsonl")))
    assert outs[0] == outs[1]


TINY = ["--set", "descriptions.num_descriptions=3",
        "--set", "images_per_description=1",
        "--set", "train.epochs=2",
        "--set", "eval.benchmark_scenes=4"]


@pytest.mark.parametrize("experiment,filename,rows_expected", [
    ("signals", "signals.json", 4),
    ("freeze", "freeze.json", 4),
    ("density", "density.json", 3),
    ("threshold", "threshold.json", 3),
])
def test_ablations_write_tables(tmp_path, experiment, filename, rows_expected):
    out = str(tmp_path / experiment)
    assert cli.main(["ablate", experiment, "--out", out] + TINY) == 0
    rows = storage.read_json(os.path.join(out, "ablate", experiment, filename))
    assert len(rows) == rows_expected
    if experiment == "signals":
        assert [r["signals"] for r in rows] == ["naive", "intra_neg", "struct_neg", "struct_pos"]
    if experiment == "threshold":
        assert [r["threshold_p"] for r in rows] == [0.3, 0.5, 0.7]
        recalls = [r["recall"] for r in rows]
        assert recalls[0] >= recalls[1] >= recalls[2]
    if experiment == "freeze":
        assert [r["freeze"] for r in rows] == ["none", "visual", "language", "fusion"]
    if experiment == "density":
        assert [r["images_per_description"] for r in rows] == [2, 4, 8]


def test_ablation_trains_with_the_train_settings(tmp_path, monkeypatch):
    """Ablation models get train.d_model, the config seed and the detection
    corpus, as `grounddesk train` gives them."""
    seen = []
    real_train = cli.train

    def spy(model, triplet_examples, detection_examples, config):
        seen.append((model.d_model, model.params["visual.weight"].copy(),
                     len(detection_examples), config.seed))
        return real_train(model, triplet_examples, detection_examples, config)

    monkeypatch.setattr(cli, "train", spy)
    out = str(tmp_path / "abl")
    assert cli.main(["ablate", "signals", "--out", out, "--set", "train.d_model=16",
                     "--set", "seed=3"] + TINY) == 0
    fresh = GroundingModel(pipeline.build_vocabulary(corpus.build_entity_pool("desk20")),
                           d_in=64, d_model=16, seed=3)
    assert len(seen) == 4
    for d_model, init, n_detection, seed in seen:
        assert (d_model, n_detection, seed) == (16, 20 * 3, 3)
        assert (init == fresh.params["visual.weight"]).all()


def test_ablation_table_does_not_depend_on_workers(tmp_path, monkeypatch):
    """ablate --workers N fans the gen, scenes and label stages out over N
    processes and writes the table it writes with one."""
    fanned = []
    real_fanout = cli.fanout

    def spy(fn, items, workers=1):
        fanned.append(workers)
        return real_fanout(fn, items, workers)

    monkeypatch.setattr(cli, "fanout", spy)
    tables = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert cli.main(["ablate", "threshold", "--out", str(out), "--workers", workers]
                        + TINY) == 0
        tables.append((out / "ablate" / "threshold" / "threshold.json").read_bytes())
    assert tables[0] == tables[1]
    assert fanned == [1] * 5 + [2] * 5  # gen, scenes and three labelings each


ALL_AND_ABLATE = ["--set", "descriptions.num_descriptions=6",
                  "--set", "images_per_description=2",
                  "--set", "train.epochs=2",
                  "--set", "eval.benchmark_scenes=4",
                  "--set", "eval.score_threshold=0"]


@pytest.fixture(scope="module")
def all_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("all_for_ablations")
    assert cli.main(["all", "--out", str(out)] + ALL_AND_ABLATE) == 0
    return storage.read_json(out / "report.json")


@pytest.mark.parametrize("experiment,column,own,corpora,labelings", [
    ("threshold", "threshold_p", 0.5, 1, 3),
    ("freeze", "freeze", "none", 1, 1),
    ("density", "images_per_description", 2, 3, 3),
    ("signals", "signals", "struct_pos", 1, 1),
])
def test_ablation_row_at_the_config_is_grounddesk_all(tmp_path, monkeypatch, all_report,
                                                      experiment, column, own, corpora,
                                                      labelings):
    """The row at the config's own setting trains and scores the model that
    `grounddesk all` does, on the same benchmark, so its metrics equal
    report.json's. The rows share one tree, so scenes are built once per
    image count and labeled once per (image count, threshold_p)."""
    calls = {"build_scene_corpus": 0, "label_corpus": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(pipeline, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)
    assert cli.main(["ablate", experiment, "--out", str(tmp_path)] + ALL_AND_ABLATE) == 0
    assert calls == {"build_scene_corpus": corpora, "label_corpus": labelings}
    rows = storage.read_json(tmp_path / "ablate" / experiment / f"{experiment}.json")
    row = next(r for r in rows if r[column] == own)
    metrics = ["AP", "AP_descr"] + [m for m in ("AP_categ", "AP_descr_L") if m in row]
    assert {m: row[m] for m in metrics} == {m: all_report[m] for m in metrics}


def test_ablation_rows_are_validated_before_the_first_row_runs(tmp_path, monkeypatch, capsys):
    """The intra_neg row needs two same-category alternatives that two
    descriptions per category cannot give, so the command fails before the
    naive row runs a stage and writes nothing."""
    monkeypatch.setattr(cli, "_run_stage", lambda *args: pytest.fail("a stage ran"))
    out = tmp_path / "abl"
    assert cli.main(["ablate", "signals", "--out", str(out),
                     "--set", "descriptions.num_descriptions=2", "--set", "targets.k_neg=0"]
                    + TINY[2:]) == 2
    assert "targets.k_neg" in capsys.readouterr().err
    assert not out.exists()


def test_second_ablation_run_reuses_the_tree(tmp_path, capsys):
    """A second run on the same --out skips gen, scenes, label and targets in
    every row, through the stage manifests, and writes the same table."""
    args = ["ablate", "freeze", "--out", str(tmp_path)] + TINY
    table = tmp_path / "ablate" / "freeze" / "freeze.json"
    assert cli.main(args) == 0
    first = table.read_bytes()
    assert (tmp_path / "ablate" / "freeze" / "tree" / "manifests" / "train.json").exists()
    capsys.readouterr()
    assert cli.main(args) == 0
    printed = capsys.readouterr().out
    for stage in ("gen", "scenes", "label", "targets"):
        assert printed.count(f"{stage}: up to date, skipping") == 4
    assert table.read_bytes() == first


def test_undefined_metric_is_null_in_the_table(tmp_path):
    """With only short benchmark descriptions AP_descr_L is undefined: null in
    report.json and in the table, which stays strict JSON."""
    assert cli.main(["ablate", "signals", "--out", str(tmp_path), "--set", "eval.nw_choices=[4]"]
                    + TINY) == 0
    text = (tmp_path / "ablate" / "signals" / "signals.json").read_text()
    rows = json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in the table"))
    assert [row["AP_descr_L"] for row in rows] == [None] * 4
