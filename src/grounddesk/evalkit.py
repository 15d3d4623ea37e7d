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
from typing import NamedTuple

import numpy as np

from .langparse import Lexicon, is_absence, parse
from .storage import TableFormat, read_jsonl, read_table, row_slices, write_jsonl, write_table

LENGTH_BUCKETS = (5, 9)  # S <= 5 tokens, M 6..9, L >= 10


def iou(box_a, box_b) -> float:
    """Intersection over union for (x, y, w, h) boxes; 0 when disjoint. The
    intersection's sides are differences of coordinates, which can round a
    box's overlap with itself to just above 1; the result is capped at 1."""
    ax0, ay0, aw, ah = box_a
    bx0, by0, bw, bh = box_b
    iw = min(ax0 + aw, bx0 + bw) - max(ax0, bx0)
    ih = min(ay0 + ah, by0 + bh) - max(ay0, by0)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return min(inter / (aw * ah + bw * bh - inter), 1.0)


def iou_array(boxes_a, boxes_b) -> np.ndarray:
    """iou() elementwise over two broadcastable (..., 4) box arrays. It runs
    the same float operations in the same order, so each entry equals iou()
    of the two boxes bit for bit."""
    ax0, ay0, aw, ah = np.moveaxis(np.asarray(boxes_a, dtype=float), -1, 0)
    bx0, by0, bw, bh = np.moveaxis(np.asarray(boxes_b, dtype=float), -1, 0)
    iw = np.minimum(ax0 + aw, bx0 + bw) - np.maximum(ax0, bx0)
    ih = np.minimum(ay0 + ah, by0 + bh) - np.maximum(ay0, by0)
    inter = iw * ih
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = inter / (aw * ah + bw * bh - inter)
    return np.where((iw > 0.0) & (ih > 0.0), np.minimum(ratio, 1.0), 0.0)


class DetectionArrays(NamedTuple):
    """One label's detections on one scene: boxes (n, 4) and scores (n,)."""
    boxes: np.ndarray
    scores: np.ndarray


def as_detection_arrays(dets) -> DetectionArrays:
    """Arrays from DetectionArrays, Detection objects, (box, score) pairs or
    results.jsonl {box, score} dicts."""
    if isinstance(dets, DetectionArrays):
        return dets
    boxes, scores = [], []
    for det in dets:
        if hasattr(det, "box"):
            box, score = det.box, det.score
        elif isinstance(det, dict):
            box, score = det["box"], det["score"]
        else:
            box, score = det
        boxes.append(tuple(box))
        scores.append(float(score))
    return DetectionArrays(np.array(boxes, dtype=float).reshape(-1, 4),
                           np.array(scores, dtype=float))


_NO_DETECTIONS = DetectionArrays(np.empty((0, 4)), np.empty(0))


class Results(dict):
    """The eval's result table: (label_id, scene_id) -> DetectionArrays, in
    row order. One row is one line of results.jsonl."""

    def extend(self, label_id, scene_id, dets: DetectionArrays) -> None:
        """Add a row, or append to the row already under its key."""
        old = self.get((label_id, scene_id))
        if old is not None:
            dets = DetectionArrays(np.concatenate([old.boxes, dets.boxes]),
                                   np.concatenate([old.scores, dets.scores]))
        self[label_id, scene_id] = dets

    def rows(self):
        """The table as results.jsonl rows {label_id, scene_id, detections}."""
        for (label_id, scene_id), dets in self.items():
            yield {"label_id": label_id, "scene_id": scene_id,
                   "detections": [{"box": box, "score": score} for box, score
                                  in zip(dets.boxes.tolist(), dets.scores.tolist())]}


def _normalize_results(results) -> Results:
    """The one converter to a Results table, from a Results, from a
    {(label_id, scene_id): detections} mapping or from results.jsonl rows
    (rows that share a key are joined in order)."""
    if isinstance(results, Results):
        return results
    table = Results()
    if isinstance(results, dict):
        for (label_id, scene_id), dets in results.items():
            table[label_id, scene_id] = as_detection_arrays(dets)
        return table
    for row in results:
        table.extend(row["label_id"], row["scene_id"], as_detection_arrays(row["detections"]))
    return table


def _ap_from_flags(flags: np.ndarray, n_gt: int) -> float:
    """Area under the all-point interpolated precision-recall curve of a
    ranking whose true positives are `flags`. Each true positive adds its
    recall step times the best precision at or after it; the terms are summed
    in rank order."""
    hits = np.flatnonzero(flags)
    if not len(hits):
        return 0.0
    tp = np.cumsum(flags)
    precisions = tp / np.arange(1, len(flags) + 1)
    best_after = np.maximum.accumulate(precisions[::-1])[::-1]
    recalls = tp[hits] / n_gt
    terms = np.diff(recalls, prepend=0.0) * best_after[hits]
    return float(np.cumsum(terms)[-1])


def average_precision(detections, gt_boxes, iou_threshold: float = 0.5) -> float:
    """AP for one label on one scene; NaN when both sides are empty."""
    return pooled_average_precision({0: detections}, {0: list(gt_boxes)}, iou_threshold)


def pooled_average_precision(dets_by_scene: dict, gt_by_scene: dict,
                             iou_threshold: float = 0.5) -> float:
    """AP for one label pooled across scenes: one ranking, per-scene matching.

    Detections are taken highest score first (stable on ties); each takes the
    unmatched ground truth of its scene with the highest IoU at or above the
    threshold (the first one wins on exact ties). Each detection is compared
    with the ground truth of its own scene in one IoU matrix, padded to the
    largest scene.
    """
    n_gt = sum(len(v) for v in gt_by_scene.values())
    groups = [(scene_id, as_detection_arrays(dets)) for scene_id, dets in dets_by_scene.items()]
    groups = [(scene_id, dets) for scene_id, dets in groups if len(dets.scores)]
    if n_gt == 0:
        return 0.0 if groups else math.nan
    if not groups:
        return 0.0
    scores = np.concatenate([dets.scores for _, dets in groups])
    order = np.argsort(-scores, kind="stable")
    boxes = np.concatenate([dets.boxes for _, dets in groups])[order]
    group = np.repeat(np.arange(len(groups)), [len(dets.scores) for _, dets in groups])[order]
    gts = [gt_by_scene.get(scene_id, ()) for scene_id, _ in groups]
    gt_pad = np.zeros((len(groups), max(len(g) for g in gts), 4))
    valid = np.zeros(gt_pad.shape[:2], dtype=bool)
    for k, g in enumerate(gts):
        if len(g):
            gt_pad[k, :len(g)] = g
            valid[k, :len(g)] = True
    ious = iou_array(boxes[:, None, :], gt_pad[group])
    candidate = valid[group] & (ious >= iou_threshold)
    flags = np.zeros(len(scores), dtype=bool)
    # Greedy matching in rank order; only detections with a candidate can match.
    rows = np.flatnonzero(candidate.any(axis=1))
    taken = [[False] * gt_pad.shape[1] for _ in gts]
    for i, g, row in zip(rows.tolist(), group[rows].tolist(),
                         np.where(candidate[rows], ious[rows], -math.inf).tolist()):
        best, best_iou = None, -math.inf
        for j, v in enumerate(row):
            if v > best_iou and not taken[g][j]:
                best, best_iou = j, v
        if best is not None:
            taken[g][best] = True
            flags[i] = True
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


def category_labels(pool, scenes) -> tuple[CategoryLabel, ...]:
    """One label per pool category: the boxes of its objects on each scene
    that has any, in scene and object order."""
    labels = []
    for cat in pool:
        gt_by_scene = {}
        for scene in scenes:
            boxes = [o.box for o in scene.objects if o.category == cat.name]
            if boxes:
                gt_by_scene[scene.scene_id] = boxes
        labels.append(CategoryLabel(cat.id, cat.name, gt_by_scene))
    return tuple(labels)


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


def _bucket(token_count: int) -> int:
    if token_count <= LENGTH_BUCKETS[0]:
        return 0
    if token_count <= LENGTH_BUCKETS[1]:
        return 1
    return 2


def _mean(values) -> float:
    vals = [v for v in values if not math.isnan(v)]
    return sum(vals) / len(vals) if vals else math.nan


def _description_aps(table: Results, benchmark, iou_threshold) -> list[float]:
    """One AP per description label, in the benchmark's label order."""
    return [average_precision(table.get((label.label_id, label.scene_id), _NO_DETECTIONS),
                              label.gt_boxes, iou_threshold)
            for label in benchmark.description_labels]


def omnilabel_report(results, benchmark: BenchmarkInstance,
                     iou_threshold: float = 0.5,
                     lexicon: Lexicon | None = None) -> MetricReport:
    """Full description-aware report over a benchmark instance.

    `results` covers both category and description labels, as anything
    _normalize_results() takes: a Results table, JSONL rows
    {label_id, scene_id, detections:[{box, score}]} or a mapping keyed by
    (label_id, scene_id).
    """
    table = _normalize_results(results)
    cat_aps = []
    for label in benchmark.category_labels:
        dets_by_scene = {}
        for scene in benchmark.scenes:
            dets = table.get((label.label_id, scene.scene_id))
            if dets is not None:
                dets_by_scene[scene.scene_id] = dets
        cat_aps.append(pooled_average_precision(dets_by_scene, label.gt_boxes, iou_threshold))
    desc_aps = _description_aps(table, benchmark, iou_threshold)
    labels = benchmark.description_labels

    ap_categ = 100.0 * _mean(cat_aps)
    ap_descr = 100.0 * _mean(desc_aps)
    ap_pos = 100.0 * _mean(ap for label, ap in zip(labels, desc_aps) if label.gt_boxes)
    buckets = ([], [], [])
    for label, ap in zip(labels, desc_aps):
        buckets[_bucket(len(label.text.split()))].append(ap)
    d3_full, d3_pres, d3_abs = d3_report(table, benchmark, iou_threshold, lexicon,
                                         description_aps=desc_aps)
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
        bucket_counts=tuple(len(b) for b in buckets),
        config={"iou_threshold": iou_threshold,
                "buckets": {"S_max": LENGTH_BUCKETS[0], "M_max": LENGTH_BUCKETS[1]},
                "interpolation": "all-point",
                "label_pooling": "macro"},
    )


def d3_report(results, benchmark: BenchmarkInstance, iou_threshold: float = 0.5,
              lexicon: Lexicon | None = None, *,
              description_aps=None) -> tuple[float, float, float]:
    """(FULL, PRES, ABS) description APs partitioned by expressions of absence.

    `description_aps`, one AP per description label in benchmark order, are
    used instead of scoring `results` again; omnilabel_report passes its own.
    """
    if description_aps is None:
        description_aps = _description_aps(_normalize_results(results), benchmark,
                                           iou_threshold)
    pres, absent = [], []
    for label, ap in zip(benchmark.description_labels, description_aps):
        (absent if is_absence(parse(label.text, lexicon)) else pres).append(ap)
    return 100.0 * _mean(description_aps), 100.0 * _mean(pres), 100.0 * _mean(absent)


def _json_floats(text: str) -> str:
    """repr() text of floats as json writes it: json spells the non-finite
    values NaN, Infinity and -Infinity."""
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def _json_id(value) -> str:
    return repr(value) if type(value) is int else json.dumps(value)


_BOX_BYTES = np.dtype((np.void, 32))  # one (x, y, w, h) float64 box


def write_results(path, results) -> None:
    """results.jsonl: one line per row of `results` (anything
    _normalize_results() takes), byte-identical to json.dumps(row,
    sort_keys=True) of its {label_id, scene_id, detections} row.

    json writes a float as float.__repr__ and a list of floats as its repr,
    apart from the non-finite spellings. A box recurs in the rows of every
    label on its scene, so its text is made once, keyed by its exact bytes.
    """
    table = _normalize_results(results)
    det_head: dict[bytes, str] = {}  # box bytes -> '{"box": [...], "score": '
    with open(path, "w", encoding="utf-8") as fh:
        for (label_id, scene_id), dets in table.items():
            keys = np.ascontiguousarray(dets.boxes).view(_BOX_BYTES).ravel().tolist()
            for key, box in zip(keys, dets.boxes.tolist()):
                if key not in det_head:
                    det_head[key] = f'{{"box": {box!r}, "score": '
            body = ", ".join([f"{det_head[key]}{score!r}}}"
                              for key, score in zip(keys, dets.scores.tolist())])
            fh.write(f'{{"detections": [{_json_floats(body)}], "label_id": {_json_id(label_id)}, '
                     f'"scene_id": {_json_id(scene_id)}}}\n')


def _result_row(row) -> tuple:
    """(label_id, scene_id, DetectionArrays) of one results.jsonl row."""
    dets = row["detections"]
    boxes = np.array([d["box"] for d in dets], dtype=float)
    scores = np.array([d["score"] for d in dets], dtype=float)
    if dets and (boxes.shape != (len(dets), 4) or scores.shape != (len(dets),)):
        raise ValueError(f"{len(dets)} detections need (n, 4) boxes and (n,) scores, "
                         f"found {boxes.shape} and {scores.shape}")
    return row["label_id"], row["scene_id"], DetectionArrays(boxes.reshape(-1, 4), scores)


def read_results(path) -> Results:
    """The Results table of a results.jsonl file, each line decoded straight
    into DetectionArrays; lines that share a key are joined in order. A line
    that does not parse or decode raises ValueError naming the file and the
    line."""
    table = Results()
    for label_id, scene_id, dets in read_jsonl(path, _result_row):
        table.extend(label_id, scene_id, dets)
    return table


RESULTS_MAGIC = b"GDRT"
RESULTS_TABLE = TableFormat("results table", RESULTS_MAGIC, 1, ("rows", "detections"),
                            (("<i8", ("rows", 2)), ("<i8", ("rows",)),
                             ("<f8", ("detections", 4)), ("<f8", ("detections",))))


def write_results_table(path, results) -> None:
    """results.bin: the Results table (anything _normalize_results() takes)
    as a RESULTS_TABLE in row order: int64 (label_id, scene_id) pairs, int64
    per-row detection counts, float64 boxes (n, 4) and float64 scores (n,)."""
    table = _normalize_results(results)
    dets = list(table.values())
    write_table(path, RESULTS_TABLE, (len(dets), sum(len(d.scores) for d in dets)),
                ([list(table)], [[len(d.scores) for d in dets]],
                 [d.boxes for d in dets], [d.scores for d in dets]))


def read_results_table(path) -> Results:
    """The Results table of a write_results_table() file, each row's arrays
    bit for bit as written. Checks the magic, the version, that the file is
    exactly as long as its counts say, and that the per-row counts are
    non-negative and sum to the detection count. Raises ValueError naming
    the file."""
    (_, n_dets), (keys, counts, boxes, scores) = read_table(path, RESULTS_TABLE)
    table = Results()
    for (label_id, scene_id), rows in zip(keys.tolist(), row_slices(path, counts, n_dets)):
        table.extend(label_id, scene_id, DetectionArrays(boxes[rows], scores[rows]))
    return table


def write_description_labels(path, labels) -> None:
    """benchmark_labels.jsonl: one line {label_id, scene_id, text, gt_boxes}
    per description label."""
    write_jsonl(path, ({"label_id": label.label_id, "scene_id": label.scene_id, "text": label.text,
                        "gt_boxes": [list(box) for box in label.gt_boxes]} for label in labels))


def _description_label(row) -> DescriptionLabel:
    return DescriptionLabel(row["label_id"], row["scene_id"], row["text"],
                            tuple(tuple(box) for box in row["gt_boxes"]))


def read_description_labels(path) -> list[DescriptionLabel]:
    return read_jsonl(path, _description_label)
