"""Description-aware detection metrics: per-label average precision with
greedy IoU matching and all-point interpolation, harmonic-mean headline AP,
positive-only and length-bucketed description APs, and presence/absence splits.

Per-label APs are macro-averaged. A label with no ground truth and no
detections is undefined and skipped from means; a label with detections but
no ground truth contributes 0, so firing on negative descriptions is
penalized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .langparse import Lexicon, is_absence, parse

LENGTH_BUCKETS = (5, 9)  # S <= 5 tokens, M 6..9, L >= 10


def iou(box_a, box_b) -> float:
    """Intersection over union for (x, y, w, h) boxes; 0 when disjoint."""
    ax0, ay0, aw, ah = box_a
    bx0, by0, bw, bh = box_b
    iw = min(ax0 + aw, bx0 + bw) - max(ax0, bx0)
    ih = min(ay0 + ah, by0 + bh) - max(ay0, by0)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (aw * ah + bw * bh - inter)


def _as_box_score(det):
    if hasattr(det, "box"):
        return tuple(det.box), float(det.score)
    box, score = det
    return tuple(box), float(score)


def _ap_from_flags(flags, n_gt) -> float:
    """Area under the all-point interpolated precision-recall curve."""
    precisions, recalls = [], []
    tp = 0
    for k, is_tp in enumerate(flags, start=1):
        tp += is_tp
        precisions.append(tp / k)
        recalls.append(tp / n_gt)
    ap = 0.0
    prev_recall = 0.0
    for k in range(len(flags)):
        if recalls[k] > prev_recall:
            ap += (recalls[k] - prev_recall) * max(precisions[k:])
            prev_recall = recalls[k]
    return ap


def average_precision(detections, gt_boxes, iou_threshold: float = 0.5) -> float:
    """AP for one label on one scene; NaN when both sides are empty."""
    return pooled_average_precision({0: detections}, {0: list(gt_boxes)}, iou_threshold)


def pooled_average_precision(dets_by_scene: dict, gt_by_scene: dict,
                             iou_threshold: float = 0.5) -> float:
    """AP for one label pooled across scenes: one ranking, per-scene matching.

    Detections are taken highest score first (stable on ties); each takes the
    unmatched ground truth of its scene with the highest IoU at or above the
    threshold (the first one wins on exact ties).
    """
    n_gt = sum(len(v) for v in gt_by_scene.values())
    entries = []
    for scene_id, dets in dets_by_scene.items():
        entries.extend((scene_id, *_as_box_score(d)) for d in dets)
    if n_gt == 0:
        return 0.0 if entries else math.nan
    if not entries:
        return 0.0
    entries.sort(key=lambda t: -t[2])
    matched = {sid: [False] * len(boxes) for sid, boxes in gt_by_scene.items()}
    flags = []
    for scene_id, box, _score in entries:
        gts = gt_by_scene.get(scene_id, [])
        taken = matched.get(scene_id, [])
        best, best_iou = None, -1.0
        for j, gt in enumerate(gts):
            if taken[j]:
                continue
            v = iou(box, gt)
            if v >= iou_threshold and v > best_iou:
                best, best_iou = j, v
        if best is not None:
            taken[best] = True
            flags.append(True)
        else:
            flags.append(False)
    return _ap_from_flags(flags, n_gt)


def harmonic_mean(a: float, b: float) -> float:
    if a + b == 0:
        return 0.0
    return 2.0 * a * b / (a + b)


@dataclass(frozen=True)
class CategoryLabel:
    label_id: int
    name: str
    gt_boxes: dict  # scene_id -> list of boxes


@dataclass(frozen=True)
class DescriptionLabel:
    label_id: int
    scene_id: int
    text: str
    gt_boxes: tuple


@dataclass(frozen=True)
class BenchmarkInstance:
    scenes: tuple
    features: dict  # scene_id -> RegionFeatures
    category_labels: tuple[CategoryLabel, ...]
    description_labels: tuple[DescriptionLabel, ...]


@dataclass(frozen=True)
class MetricReport:
    AP: float
    AP_categ: float
    AP_descr: float
    AP_descr_pos: float
    AP_descr_S: float
    AP_descr_M: float
    AP_descr_L: float
    d3_full: float
    d3_pres: float
    d3_abs: float
    bucket_counts: tuple[int, int, int]
    config: dict

    def to_json(self) -> dict:
        def clean(x):
            return None if isinstance(x, float) and math.isnan(x) else x
        row = {k: clean(getattr(self, k)) for k in
               ("AP", "AP_categ", "AP_descr", "AP_descr_pos",
                "AP_descr_S", "AP_descr_M", "AP_descr_L",
                "d3_full", "d3_pres", "d3_abs")}
        row["bucket_counts"] = list(self.bucket_counts)
        row["config"] = self.config
        return row


def _normalize_results(results) -> dict:
    """Accepts JSONL-style rows or a {(label_id, scene_id): [(box, score)]} map."""
    if isinstance(results, dict):
        return {k: [_as_box_score(d) for d in v] for k, v in results.items()}
    table: dict = {}
    for row in results:
        key = (row["label_id"], row["scene_id"])
        dets = [(tuple(d["box"]), float(d["score"])) for d in row["detections"]]
        table.setdefault(key, []).extend(dets)
    return table


def _bucket(token_count: int) -> int:
    if token_count <= LENGTH_BUCKETS[0]:
        return 0
    if token_count <= LENGTH_BUCKETS[1]:
        return 1
    return 2


def _mean(values) -> float:
    vals = [v for v in values if not math.isnan(v)]
    return sum(vals) / len(vals) if vals else math.nan


def _description_aps(results, benchmark, iou_threshold):
    table = _normalize_results(results)
    rows = []
    for label in benchmark.description_labels:
        dets = table.get((label.label_id, label.scene_id), [])
        ap = average_precision(dets, list(label.gt_boxes), iou_threshold)
        rows.append((label, ap))
    return rows


def omnilabel_report(results, benchmark: BenchmarkInstance,
                     iou_threshold: float = 0.5,
                     lexicon: Lexicon | None = None) -> MetricReport:
    """Full description-aware report over a benchmark instance.

    `results` covers both category and description labels, either as JSONL
    rows {label_id, scene_id, detections:[{box, score}]} or as a mapping
    keyed by (label_id, scene_id).
    """
    table = _normalize_results(results)
    cat_aps = []
    for label in benchmark.category_labels:
        dets_by_scene = {}
        for scene in benchmark.scenes:
            dets = table.get((label.label_id, scene.scene_id))
            if dets:
                dets_by_scene[scene.scene_id] = dets
        ap = pooled_average_precision(dets_by_scene, label.gt_boxes, iou_threshold)
        cat_aps.append(ap)
    desc_rows = _description_aps(results, benchmark, iou_threshold)

    ap_categ = 100.0 * _mean(cat_aps)
    ap_descr = 100.0 * _mean(ap for _label, ap in desc_rows)
    ap_pos = 100.0 * _mean(ap for label, ap in desc_rows if label.gt_boxes)
    buckets = ([], [], [])
    counts = [0, 0, 0]
    for label, ap in desc_rows:
        b = _bucket(len(label.text.split()))
        counts[b] += 1
        buckets[b].append(ap)
    abs_flags = {label.label_id: is_absence(parse(label.text, lexicon))
                 for label, _ap in desc_rows}
    d3_full = 100.0 * _mean(ap for _l, ap in desc_rows)
    d3_pres = 100.0 * _mean(ap for l, ap in desc_rows if not abs_flags[l.label_id])
    d3_abs = 100.0 * _mean(ap for l, ap in desc_rows if abs_flags[l.label_id])
    return MetricReport(
        AP=harmonic_mean(ap_categ, ap_descr),
        AP_categ=ap_categ,
        AP_descr=ap_descr,
        AP_descr_pos=ap_pos,
        AP_descr_S=100.0 * _mean(buckets[0]),
        AP_descr_M=100.0 * _mean(buckets[1]),
        AP_descr_L=100.0 * _mean(buckets[2]),
        d3_full=d3_full,
        d3_pres=d3_pres,
        d3_abs=d3_abs,
        bucket_counts=tuple(counts),
        config={"iou_threshold": iou_threshold,
                "buckets": {"S_max": LENGTH_BUCKETS[0], "M_max": LENGTH_BUCKETS[1]},
                "interpolation": "all-point",
                "label_pooling": "macro"},
    )


def d3_report(results, benchmark: BenchmarkInstance, iou_threshold: float = 0.5,
              lexicon: Lexicon | None = None) -> tuple[float, float, float]:
    """(FULL, PRES, ABS) description APs partitioned by expressions of absence."""
    desc_rows = _description_aps(results, benchmark, iou_threshold)
    pres, absent = [], []
    for label, ap in desc_rows:
        (absent if is_absence(parse(label.text, lexicon)) else pres).append(ap)
    full = 100.0 * _mean(ap for _l, ap in desc_rows)
    return full, 100.0 * _mean(pres), 100.0 * _mean(absent)


def write_results(path, results_rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in results_rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_results(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]
