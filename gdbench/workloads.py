"""The benchmark's workloads: the config each one hands to the CLI stages, and
the checks each one runs on the artifacts those stages wrote.

Every workload is a closed loop with one client: a single process runs the
stages one after another through ``grounddesk.cli.run`` with ``workers=1``.
The benchmark seed becomes the config ``seed``; the program sees only the
generated config.  Sizes are scaled down from the full-size runs so that
one run of the benchmark repeats each workload several times within its time
budget on a 2-core machine; DESIGN.md gives the reasons.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

ALL_STAGES = ("gen", "scenes", "label", "targets", "train", "eval", "report")
DATA_STAGES = ("gen", "scenes", "label", "targets")
MANIFEST_STAGES = ("gen", "scenes", "label", "targets", "train", "eval")


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    stages: tuple
    # Overrides cycled per iteration on top of `overrides`.  Two variants make
    # eval re-run on a prebuilt tree; ap_descr is reported for the first.
    variants: tuple = ({},)
    # Stages set-up runs to build the tree that every iteration then re-uses.
    setup_stages: tuple = ()

    @property
    def prebuilt(self) -> bool:
        return bool(self.setup_stages)


# Eval scores at a low eval.score_threshold.  At the default 0.6, AP_descr
# moves by 10 to 20% from seed to seed, because it counts only the few
# detections of a lightly trained model that clear 0.6; a quality guard needs
# it steadier.  reeval_large's one-epoch model scores near 0.1, so there the
# threshold is 0: every region's score for every label becomes a detection,
# and the work does not depend on where the scores fall.
WORKLOADS = {
    "pipeline_default": Workload(
        name="pipeline_default",
        overrides={"descriptions.num_descriptions": 5, "train.epochs": 12,
                   "eval.benchmark_scenes": 300, "eval.score_threshold": 0.1},
        stages=ALL_STAGES,
    ),
    "reeval_large": Workload(
        name="reeval_large",
        overrides={"descriptions.num_descriptions": 5, "train.epochs": 1,
                   "eval.benchmark_scenes": 500, "eval.score_threshold": 0.0},
        stages=ALL_STAGES,
        variants=({"eval.iou_threshold": 0.5}, {"eval.iou_threshold": 0.75}),
        setup_stages=ALL_STAGES[:5],
    ),
    "data_desk80": Workload(
        name="data_desk80",
        overrides={"pool": "desk80", "descriptions.num_descriptions": 6,
                   "descriptions.target_length_words": 12, "images_per_description": 4},
        stages=DATA_STAGES,
    ),
}


# The workloads BENCHMARK.json lists.  data_desk80 runs only when named: with
# three timed workloads each run was too short to be steady on a shared
# 2-core machine, and its layers also run in pipeline_default.  The
# benchmark's own tests still check its determinism.
TIMED = ("pipeline_default", "reeval_large")


def config_overrides(workload: Workload, seed: int, iteration: int) -> list[tuple[str, str]]:
    """Dotted (path, JSON value) pairs for grounddesk.cli.load_config."""
    values = {**workload.overrides, **workload.variants[iteration % len(workload.variants)],
              "seed": seed}
    return [(path, json.dumps(value)) for path, value in sorted(values.items())]


def _count_lines(path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def _finite_report(out) -> bool:
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    headline = [report.get(k) for k in ("AP", "AP_categ", "AP_descr")]
    numbers = [v for v in report.values() if isinstance(v, (int, float))]
    numbers += [v for v in report.get("d3", {}).values() if isinstance(v, (int, float))]
    return (all(isinstance(v, (int, float)) for v in headline)
            and all(math.isfinite(v) for v in numbers))


def check_outputs(workload: Workload, out: str, config: dict, run: dict) -> dict:
    """Named pass/fail results for the artifacts of one iteration."""
    from grounddesk import corpus

    checks = {}
    if workload.name == "pipeline_default":
        pool = corpus.build_entity_pool(config["pool"])
        expected = len(pool) * config["descriptions"]["num_descriptions"] \
            * config["images_per_description"]
        checks["scenes_rows"] = _count_lines(os.path.join(out, "scenes.jsonl")) == expected
        checks["manifests"] = all(
            os.path.exists(os.path.join(out, "manifests", f"{s}.json")) for s in MANIFEST_STAGES
        ) and os.path.exists(os.path.join(out, "summary.json"))
        checks["report_finite"] = _finite_report(out)
    elif workload.name == "reeval_large":
        skipped = set(run["skipped"])
        checks["gen_to_train_up_to_date"] = skipped == set(ALL_STAGES[:5])
        checks["model_unchanged"] = run["ckpt_before"] == run["ckpt_after"]
        checks["report_finite"] = _finite_report(out)
    elif workload.name == "data_desk80":
        with open(os.path.join(out, "scenes.jsonl"), encoding="utf-8") as fh:
            scene_ids = [json.loads(line)["scene_id"] for line in fh]
        with open(os.path.join(out, "triplets.jsonl"), encoding="utf-8") as fh:
            triplets = [json.loads(line) for line in fh]
        checks["one_triplet_per_scene"] = [t["scene_id"] for t in triplets] == scene_ids
        with_assignments = sum(1 for t in triplets if t["assignments"])
        checks["one_example_per_labeled_triplet"] = (
            _count_lines(os.path.join(out, "examples.jsonl")) == with_assignments)
    return checks


def quality(workload: Workload, out: str, config: dict) -> tuple[float, float]:
    """(ap_descr, label_recall) of one iteration's artifacts.

    With a trained model both come from the run's own report.json and
    summary.json.  data_desk80 trains no model, so its description AP scores
    the weak-to-strong pseudo-boxes on each description's subject span
    against the referents scenegen placed, and its recall is computed the
    way the report stage computes label_recall_mean.
    """
    from grounddesk import corpus, evalkit, labeling, langparse, scenegen

    if workload.name != "data_desk80":
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        return float(summary["metrics"]["AP_descr"]), float(summary["label_recall_mean"])

    lexicon = langparse.Lexicon.from_categories(corpus.build_entity_pool(config["pool"]))
    scenes = {s.scene_id: s for s in scenegen.read_scenes(os.path.join(out, "scenes.jsonl"))}
    aps, recalls = [], []
    with open(os.path.join(out, "triplets.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            triplet = labeling.triplet_from_json(json.loads(line))
            scene = scenes[triplet.scene_id]
            recalls.append(labeling.label_recall(triplet, scene, lexicon=lexicon))
            subject = langparse.parse(triplet.description, lexicon).subject
            span = (subject.start_token, subject.end_token)
            boxes = [scene.objects[i].box for i, s in triplet.assignments
                     if s == span and i < len(scene.objects)]
            gt = [scene.object_by_id(r).box for r in sorted(scene.referent_ids)]
            ap = evalkit.average_precision([(b, 1.0) for b in boxes], gt)
            if not math.isnan(ap):
                aps.append(ap)
    return 100.0 * sum(aps) / len(aps), sum(recalls) / len(recalls)
