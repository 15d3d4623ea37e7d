import builtins
import dataclasses
import importlib.util
import json
import os
import re
import shutil
import sys

import pytest

from grounddesk import cli, corpus, labeling, pipeline, scenegen, storage, targets
from grounddesk.cli import ConfigError, load_config
from grounddesk.groundnet import GroundingModel
from grounddesk.seeding import derive_seed

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
                    "--set", "descriptions.num_descriptions=1"])
    assert code == 0


def test_missing_artifact_exit_code(tmp_path):
    assert run_cli(["label", "--out", str(tmp_path / "empty")] + SMALL) == 3
    assert run_cli(["train", "--out", str(tmp_path / "empty")] + SMALL) == 3


def test_config_error_exit_code(tmp_path):
    assert run_cli(["gen", "--out", str(tmp_path / "o"),
                    "--set", "descriptions.target_length_words=1"]) == 2
    assert run_cli(["gen", "--out", str(tmp_path / "o"), "--set", "bogus=1"]) == 2
    assert run_cli(["gen", "--out", str(tmp_path / "o"), "--set", "pool=desk999"]) == 2


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
                "model.vocab.json", "history.csv", "results.jsonl", "report.json",
                "summary.json", "features/index.jsonl"]
    for name in expected:
        assert os.path.exists(os.path.join(pipeline_dir, name)), name
    for stage in ("gen", "scenes", "label", "targets", "train", "eval"):
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


@pytest.mark.parametrize("keep", [lambda n: n - 8, lambda n: 6],
                         ids=["short_payload", "short_header"])
def test_truncated_feature_file_is_an_artifact_error(corrupt_copy, capsys, keep):
    _truncate(corrupt_copy / "features" / "scene_000000.bin", keep)
    os.remove(storage.manifest_path(corrupt_copy, "targets"))
    assert run_cli(["targets", "--out", str(corrupt_copy)] + SMALL) == 5
    err = capsys.readouterr().err
    assert "artifact error" in err and "scene_000000.bin" in err


def test_deleted_feature_file_is_a_missing_artifact(corrupt_copy, capsys):
    os.remove(corrupt_copy / "features" / "scene_000001.bin")
    os.remove(storage.manifest_path(corrupt_copy, "targets"))
    assert run_cli(["targets", "--out", str(corrupt_copy)] + SMALL) == 3
    assert "scene_000001.bin" in capsys.readouterr().err


def test_truncated_feature_file_reruns_targets_and_train(corrupt_copy, capsys):
    _truncate(corrupt_copy / "features" / "scene_000000.bin", lambda n: n - 8)
    for stage in ("targets", "train"):
        assert run_cli([stage, "--out", str(corrupt_copy)] + SMALL) == 5
        err = capsys.readouterr().err
        assert "artifact error" in err and "scene_000000.bin" in err


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
    _truncate(corrupt_copy / "manifests" / "label.json", lambda n: n // 2)
    assert run_cli(["label", "--out", str(corrupt_copy)] + SMALL) == 5
    err = capsys.readouterr().err
    assert "artifact error" in err and os.path.join("manifests", "label.json") in err


@pytest.mark.parametrize("filename,stage", [
    ("descriptions.jsonl", "scenes"), ("scenes.jsonl", "label"),
    ("triplets.jsonl", "targets"), ("features/index.jsonl", "targets"),
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
    assert len(os.listdir(os.path.join(pipeline_dir, "features"))) == len(bundle.scenes) + 1
    for scene in bundle.scenes:
        name = f"scene_{scene.scene_id:06d}.bin"
        assert written(name, scenegen.write_features, bundle.features[scene.scene_id]) \
            == cli_bytes(os.path.join("features", name)), name
    triplets = pipeline.label_corpus(bundle)
    assert _jsonl(map(labeling.triplet_to_json, triplets)) == cli_bytes("triplets.jsonl")
    assert _examples_jsonl(pipeline.build_detection_examples(bundle, seed=0)) \
        == cli_bytes("detection_examples.jsonl")
    query_seed = derive_seed(0, "query")  # the CLI's query seed label
    examples = [pipeline.training_example(bundle, t, pipeline.FULL_VARIANT, query_seed)
                for t in triplets if t.assignments]
    assert _examples_jsonl(examples) == cli_bytes("examples.jsonl")


MANIFEST_STAGES = [name for name, stage in cli.STAGES.items() if stage.manifest]


def _declared_files(out, stage):
    """The stage's declared inputs, the feature index expanded to the files it lists."""
    files = set(stage.inputs)
    if cli.FEATURE_INDEX in stage.inputs:
        with open(os.path.join(out, cli.FEATURE_INDEX)) as fh:
            files.update(json.loads(line)["file"] for line in fh)
    return files


class _RecordingConfig(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("name", MANIFEST_STAGES)
def test_stage_reads_exactly_its_declaration(corrupt_copy, monkeypatch, name):
    """A stage opens exactly its declared inputs and reads exactly its
    declared config keys, apart from its manifest and the outputs it hashes."""
    out = str(corrupt_copy)
    stage = cli.STAGES[name]
    os.remove(storage.manifest_path(out, name))
    keys_read = set()

    def body(config, out_dir, workers):
        recording = _RecordingConfig(config)
        written = stage.body(recording, out_dir, workers)
        keys_read.update(recording.read)
        return written

    opened = set()
    real_open = builtins.open

    def spy_open(file, mode="r", *args, **kwargs):
        if not set(mode) & set("wax+"):
            opened.add(os.path.relpath(os.fspath(file), out))
        return real_open(file, mode, *args, **kwargs)

    config = load_config(overrides=[tuple(a.split("=", 1)) for a in SMALL[1::2]],
                         output_dir=out)
    monkeypatch.setitem(cli.STAGES, name, dataclasses.replace(stage, body=body))
    monkeypatch.setattr(builtins, "open", spy_open)
    assert cli.run(name, config) == 0
    monkeypatch.undo()
    written = storage.read_json(storage.manifest_path(out, name))["outputs"]
    reads = {p for p in opened if not p.startswith("manifests") and p not in written}
    assert reads == _declared_files(out, stage)
    assert keys_read == set(stage.keys)


def _corrupt(path):
    data = bytearray(path.read_bytes())
    mid = len(data) // 2
    data[mid] = 1 if data[mid] == 0 else 0
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("name,filename", [
    (name, filename) for name in MANIFEST_STAGES for filename in cli.STAGES[name].inputs
] + [(name, "features/scene_000000.bin") for name in MANIFEST_STAGES
     if cli.FEATURE_INDEX in cli.STAGES[name].inputs])
def test_corrupt_declared_input_reruns_or_is_an_artifact_error(corrupt_copy, capsys,
                                                               name, filename):
    assert run_cli([name, "--out", str(corrupt_copy)] + SMALL) == 0
    assert f"{name}: up to date, skipping" in capsys.readouterr().out
    _corrupt(corrupt_copy / filename)
    code = run_cli([name, "--out", str(corrupt_copy)] + SMALL)
    captured = capsys.readouterr()
    if code == 5:
        assert os.path.basename(filename) in captured.err
    else:
        assert code == 0 and "up to date" not in captured.out


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
    real_train = pipeline.train

    def spy(model, triplet_examples, detection_examples, config):
        seen.append((model.d_model, model.params["visual.weight"].copy(),
                     len(detection_examples), config.seed))
        return real_train(model, triplet_examples, detection_examples, config)

    monkeypatch.setattr(pipeline, "train", spy)
    out = str(tmp_path / "abl")
    assert cli.main(["ablate", "signals", "--out", out, "--set", "train.d_model=16",
                     "--set", "seed=3"] + TINY) == 0
    fresh = GroundingModel(pipeline.build_vocabulary(corpus.build_entity_pool("desk20")),
                           d_in=64, d_model=16, seed=3)
    assert len(seen) == 4
    for d_model, init, n_detection, seed in seen:
        assert (d_model, n_detection, seed) == (16, 20 * 3, 3)
        assert (init == fresh.params["visual.weight"]).all()
