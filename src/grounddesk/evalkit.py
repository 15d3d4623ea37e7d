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
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .langparse import Lexicon, ParseTree, is_absence, parse
from .storage import (TableFormat, check_row_counts, read_jsonl, read_table, row_slices,
                      write_jsonl, write_table)

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


class ResultColumns(NamedTuple):
    """The result table as the four columns of results.bin, in row order:
    keys (rows, 2) of (label_id, scene_id), counts (rows,), boxes (n, 4) and
    scores (n,). Row i holds the counts[i] detections that follow those of
    the rows before it; rows that share a key are one row, joined in order."""
    keys: np.ndarray
    counts: np.ndarray
    boxes: np.ndarray
    scores: np.ndarray


def result_columns(results) -> ResultColumns:
    """The one converter to columns: ResultColumns as they are, anything
    _normalize_results() takes converted once, one row per key."""
    if isinstance(results, ResultColumns):
        return results
    table = _normalize_results(results)
    dets = list(table.values())
    return ResultColumns(np.array(list(table), dtype=object).reshape(-1, 2),
                         np.array([len(d.scores) for d in dets], dtype=np.int64),
                         np.concatenate([_NO_DETECTIONS.boxes, *(d.boxes for d in dets)]),
                         np.concatenate([_NO_DETECTIONS.scores, *(d.scores for d in dets)]))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices start, ..., start + count - 1 of each range, concatenated."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _index_of(values: np.ndarray, *queries: np.ndarray) -> list[np.ndarray]:
    """For each array of queries, the index of each query's first occurrence
    in `values`, -1 where it has none. Numeric ids are found by
    np.searchsorted in their sorted distinct values; object arrays, as
    result_columns() makes from JSON rows, through a dict, so that any
    hashable id works."""
    if values.dtype == object or any(q.dtype == object for q in queries):
        first = dict(zip(values.tolist()[::-1], range(len(values) - 1, -1, -1)))
        return [np.fromiter((first.get(query, -1) for query in q.tolist()), dtype=np.intp,
                            count=len(q)) for q in queries]
    if not len(values):
        return [np.full(len(q), -1, dtype=np.intp) for q in queries]
    distinct, first = np.unique(values, return_index=True)
    found = []
    for q in queries:
        at = np.minimum(np.searchsorted(distinct, q), len(distinct) - 1)
        found.append(np.where(distinct[at] == q, first[at], -1))
    return found


def _stable_argsort(codes: np.ndarray) -> np.ndarray:
    """np.argsort(codes, kind="stable") of integer codes; numpy sorts them
    by radix when they fit in uint16."""
    if len(codes) and 0 <= codes.min() and codes.max() <= np.iinfo(np.uint16).max:
        codes = codes.astype(np.uint16)
    return np.argsort(codes, kind="stable")


def _ranking(scores: np.ndarray, pools: np.ndarray) -> np.ndarray:
    """np.lexsort((-scores, pools)): the indices pool by pool, each pool's
    highest score first, NaN last, equal scores in index order. One unstable
    argsort of -scores, which numpy runs as a SIMD sort, then a stable pass
    on the pools (_stable_argsort()). Distinct scores have one order, so
    only a run of equal scores, or of NaNs, within one pool can come out of
    index order; such runs are put back in it."""
    key = np.negative(scores)
    order = np.argsort(key)
    many_pools = len(pools) > 0 and pools.min() != pools.max()
    if many_pools:
        order = order[_stable_argsort(pools[order])]
    key = key[order]
    nan = np.isnan(key)
    tied = (key[1:] == key[:-1]) | (nan[1:] & nan[:-1])
    if many_pools:
        ranked = pools[order]
        tied &= ranked[1:] == ranked[:-1]
    if tied.any():
        run = np.concatenate([[0], np.cumsum(~tied)])
        at = np.flatnonzero(np.concatenate([tied, [False]]) | np.concatenate([[False], tied]))
        order[at] = order[at][np.lexsort((order[at], run[at]))]
    return order


def _all_point_aps(hit_pool: np.ndarray, hit_rank: np.ndarray, n_gt: np.ndarray) -> np.ndarray:
    """Each pool's area under its all-point interpolated precision-recall
    curve, from its true positives: hit_pool, sorted, and hit_rank, the
    1-based rank of each in its pool's ranking. The t-th true positive at
    rank k has precision t/k and recall t/n_gt; it adds its recall step times
    the best precision at or after it, and the terms are summed in rank
    order. (After the last true positive, and between two, precision only
    falls, so the best precision after a rank is that of a true positive.)
    The pools' true positives are padded into one row per pool, as wide as
    the most any pool has."""
    m = np.bincount(hit_pool, minlength=len(n_gt))
    tp = np.arange(1, len(hit_pool) + 1) - (np.cumsum(m) - m)[hit_pool]
    recall = tp / n_gt[hit_pool]
    step = recall - np.where(tp > 1, np.concatenate([[0.0], recall[:-1]]), 0.0)
    best, steps = np.zeros((2, len(n_gt), m.max(initial=0)))
    best[hit_pool, tp - 1], steps[hit_pool, tp - 1] = tp / hit_rank, step
    best = np.maximum.accumulate(best[:, ::-1], axis=1)[:, ::-1]
    return np.cumsum(steps * best, axis=1)[:, -1] if best.shape[1] else np.zeros(len(n_gt))


class MatchTable(NamedTuple):
    """Everything matching needs that does not depend on the IoU threshold,
    as match_table.bin holds it. A pool is one label: the category labels in
    benchmark order, then the description labels, whose word counts and
    absence flags are `words` and `absent`. A task is one (pool, scene) that
    has both detections and ground truth, in pool order. A candidate is a
    detection of a task whose IoU with some ground-truth box of its task is
    above 0; no other detection can reach a threshold in (0, 1]. Candidates
    are ordered by (task, rank)."""
    pool_dets: np.ndarray  # (pools,) detections per pool
    pool_gt: np.ndarray  # (pools,) ground-truth boxes per pool
    words: np.ndarray  # (descriptions,) word count of each description pool
    absent: np.ndarray  # (descriptions,) uint8 absence flag of each description pool
    task_pool: np.ndarray  # (tasks,) each task's pool, non-decreasing
    task_gt: np.ndarray  # (tasks,) ground-truth boxes per task, at least 1
    cand_task: np.ndarray  # (candidates,) each candidate's task
    cand_rank: np.ndarray  # (candidates,) its 1-based rank in its pool's ranking
    cand_ious: np.ndarray  # (candidates, boxes) its IoU with each box of its task, 0 after the last

    @property
    def n_categories(self) -> int:
        return len(self.pool_dets) - len(self.words)

    def pools(self, lo: int, hi: int) -> MatchTable:
        """The table of pools lo..hi-1 alone: their tasks and candidates are
        contiguous runs, renumbered from 0."""
        t0, t1 = np.searchsorted(self.task_pool, (lo, hi)).tolist()
        c0, c1 = np.searchsorted(self.cand_task, (t0, t1)).tolist()
        d0, d1 = max(lo - self.n_categories, 0), max(hi - self.n_categories, 0)
        return MatchTable(self.pool_dets[lo:hi], self.pool_gt[lo:hi], self.words[d0:d1],
                          self.absent[d0:d1], self.task_pool[t0:t1] - lo, self.task_gt[t0:t1],
                          self.cand_task[c0:c1] - t0, self.cand_rank[c0:c1],
                          self.cand_ious[c0:c1])


def _pooled_table(columns: ResultColumns, pools) -> MatchTable:
    """The MatchTable of pools (label_id, scene_ids, gt_by_scene), without
    description columns. A pool is the rows of label_id on scene_ids, in that
    order, ranked as one list and matched scene by scene against
    gt_by_scene.

    Each (pool, scene) is a segment. Segments find their rows, and their
    ground truth, by sorted-key joins: the (label, scene) keys are coded by
    _index_of() and the rows' codes sorted once, stably, so that rows that
    share a key join in file order. Each pool ranks its detections highest
    score first, stable on ties (_ranking()), and a detection's rank in its
    pool comes from the inverse permutation of the ranking. A segment with
    detections and ground truth is a task; each of its detections' IoUs with
    the task's boxes, padded to the most boxes a task has, is computed once.
    """
    boxes, counts, scores = columns.boxes, columns.counts, columns.scores
    dtype = object if columns.keys.dtype == object else None
    label_ids, scene_lists, gts = zip(*pools) if pools else ((), (), ())
    n_pools = len(pools)
    n_scenes = np.fromiter(map(len, scene_lists), dtype=np.intp, count=n_pools)
    seg_pool = np.repeat(np.arange(n_pools), n_scenes)
    label_ids = np.array(label_ids, dtype=dtype)
    seg_scene = np.array(list(chain.from_iterable(scene_lists)), dtype=dtype)
    n_segs = len(seg_pool)

    # Each segment's rows, and its ground truth, by (label, scene) and
    # (pool, scene) keys coded by the segments' own ids.
    gt_lists = [scene_gt for gt in gts for scene_gt in gt.values()]
    gt_counts = np.fromiter(map(len, gt_lists), dtype=np.intp, count=len(gt_lists))
    gt_pool = np.repeat(np.arange(n_pools), np.fromiter(map(len, gts), dtype=np.intp,
                                                        count=n_pools))
    n_gt = np.bincount(gt_pool, weights=gt_counts, minlength=n_pools).astype(np.int64)
    row_label, label_code = _index_of(label_ids, columns.keys[:, 0], label_ids)
    row_scene, scene_code, gt_scene = _index_of(
        seg_scene, columns.keys[:, 1], seg_scene,
        np.array(list(chain.from_iterable(gts)), dtype=dtype))
    row_code = np.where((row_label >= 0) & (row_scene >= 0), row_label * n_segs + row_scene, -1)
    seg_code = label_code[seg_pool] * n_segs + scene_code
    rows = np.flatnonzero(row_code >= 0)
    rows = rows[_stable_argsort(row_code[rows])]
    lo = np.searchsorted(row_code[rows], seg_code, "left")
    n_rows = np.searchsorted(row_code[rows], seg_code, "right") - lo
    rows = rows[_ranges(lo, n_rows)]
    n = counts[rows]
    det = _ranges((np.cumsum(counts) - counts)[rows], n)
    det_seg = np.repeat(np.repeat(np.arange(n_segs), n_rows), n)
    (seg_gt,) = _index_of(np.where(gt_scene >= 0, gt_pool * n_segs + gt_scene, -1),
                          seg_pool * n_segs + scene_code)
    # seg_gt is -1 for a segment without ground truth: the appended 0.
    is_task = ((np.bincount(det_seg, minlength=n_segs) > 0)
               & (np.append(gt_counts, 0)[seg_gt] > 0))
    task_gt = seg_gt[is_task]
    seg_task = np.where(is_task, np.cumsum(is_task) - 1, -1)

    pool = seg_pool[det_seg]
    order = _ranking(scores[det], pool)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    size = np.bincount(pool, minlength=n_pools)
    rank = position + 1 - (np.cumsum(size) - size)[pool]
    task = seg_task[det_seg]
    tasked = np.flatnonzero(task >= 0)
    task, tasked_det = task[tasked], det[tasked]
    n_boxes = gt_counts[task_gt]
    valid = np.arange(n_boxes.max(initial=0)) < n_boxes[:, None]
    gt_pad = np.zeros((*valid.shape, 4))
    gt_pad[valid] = np.array([box for i in task_gt.tolist() for box in gt_lists[i]],
                             dtype=float).reshape(-1, 4)
    ious = np.where(valid[task], iou_array(np.take(boxes, tasked_det, axis=0)[:, None, :],
                                           np.take(gt_pad, task, axis=0)), 0.0)
    cand = np.flatnonzero((ious > 0.0).any(axis=1))
    cand = cand[np.lexsort((rank[tasked[cand]], task[cand]))]
    return MatchTable(size, n_gt, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8),
                      seg_pool[is_task], n_boxes, task[cand], rank[tasked[cand]], ious[cand])


def _table_aps(table: MatchTable, iou_threshold: float) -> np.ndarray:
    """The AP of each pool of `table` at iou_threshold, which must lie in
    (0, 1]: NaN for a pool with neither ground truth nor detections, 0 for
    one with only one of them.

    In rank order, each detection of a task takes the untaken ground-truth
    box of its task with the highest IoU at or above the threshold, the
    first on exact ties. A candidate whose IoU reaches the threshold with no
    box of its task can neither hit nor take a box, so the steps go over the
    others only: step k takes the k-th of every task, in rank order, at once.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"IoU threshold {iou_threshold} does not lie in (0, 1]")
    n_tasks, width = len(table.task_gt), table.cand_ious.shape[1]
    reach = ((table.cand_ious >= iou_threshold)
             & (np.arange(width) < table.task_gt[table.cand_task][:, None]))
    entry = np.flatnonzero(reach.any(axis=1))
    task = table.cand_task[entry]
    per_task = np.bincount(task, minlength=n_tasks)
    step = np.arange(len(entry)) - (np.cumsum(per_task) - per_task)[task]
    by_step = _stable_argsort(step)
    entry, task = entry[by_step], task[by_step]
    ious = np.where(reach[entry], table.cand_ious[entry], -math.inf)
    taken = np.zeros((n_tasks, width), dtype=bool)
    hit = np.zeros(len(entry), dtype=bool)
    lo = 0
    for hi in np.cumsum(np.bincount(step)).tolist():
        t = task[lo:hi]
        free = np.where(taken[t], -math.inf, ious[lo:hi])
        best = free.argmax(axis=1)
        matched = free[np.arange(hi - lo), best] > -math.inf
        taken[t[matched], best[matched]] = True
        hit[lo:hi] = matched
        lo = hi
    hits = entry[hit]
    pool, rank = table.task_pool[table.cand_task[hits]], table.cand_rank[hits]
    by_rank = np.lexsort((rank, pool))
    n_gt, size = table.pool_gt, table.pool_dets
    aps = _all_point_aps(pool[by_rank], rank[by_rank], np.maximum(n_gt, 1))
    aps[n_gt == 0] = np.where(size[n_gt == 0] > 0, 0.0, math.nan)
    return aps


def average_precision(detections, gt_boxes=None, iou_threshold: float = 0.5) -> float:
    """AP for one label: NaN when it has neither ground truth nor detections,
    0 when it has only one of them. `detections` and `gt_boxes` are its
    detections and ground truth boxes on one scene or, to pool the label
    across scenes, a mapping scene_id -> boxes with, for the detections,
    either a mapping scene_id -> detections or the ResultColumns of the
    label's rows. Pooled detections are ranked as one list, in scene order
    on equal scores, and matched scene by scene. `detections` may also be
    the MatchTable of the label alone, which holds its ground truth; then
    `gt_boxes` is None."""
    if isinstance(detections, MatchTable):
        if gt_boxes is not None or len(detections.pool_dets) != 1:
            raise ValueError("a MatchTable is scored alone, and only the table of one label")
        return _table_aps(detections, iou_threshold).item()
    if not isinstance(gt_boxes, Mapping):
        detections, gt_boxes = {0: detections}, {0: list(gt_boxes)}
    if isinstance(detections, ResultColumns):
        columns = detections
        label_id = columns.keys[0, 0] if len(columns.keys) else 0
        scene_ids = tuple(dict.fromkeys(columns.keys[:, 1].tolist()))
    else:
        columns = result_columns({(0, scene_id): dets for scene_id, dets in detections.items()})
        label_id, scene_ids = 0, tuple(detections)
    table = _pooled_table(columns, [(label_id, scene_ids, gt_boxes)])
    return _table_aps(table, iou_threshold).item()


def pooled_average_precision(dets_by_scene, gt_by_scene: dict | None = None,
                             iou_threshold: float = 0.5) -> float:
    """AP for one label pooled across scenes: average_precision() of its
    detections by scene (a mapping, or the ResultColumns of its rows) and its
    ground truth by scene, or of its MatchTable alone. omnilabel_report()
    scores each category label by one call on its slice of the table."""
    return average_precision(dets_by_scene, gt_by_scene, iou_threshold)


def harmonic_mean(a: float, b: float) -> float:
    if a + b == 0:
        return 0.0
    return 2.0 * a * b / (a + b)


@dataclass(frozen=True)
class CategoryLabel:
    label_id: int
    name: str | None  # None when read back from benchmark_truth.bin
    gt_boxes: dict  # scene_id -> list of boxes


@dataclass(frozen=True)
class DescriptionLabel:
    """A description label on one scene. `words`, the text's word count,
    sets its length bucket, and `absent` says whether the text expresses
    absence; both are fixed when the label is made (description_label()),
    so scoring never parses. A label read back from benchmark_truth.bin has
    no text."""
    label_id: int
    scene_id: int
    text: str | None
    gt_boxes: tuple
    words: int
    absent: bool


def description_label(label_id: int, scene_id: int, text: str, gt_boxes,
                      tree: ParseTree) -> DescriptionLabel:
    """The DescriptionLabel of `text`, given its parse `tree`."""
    return DescriptionLabel(label_id, scene_id, text, tuple(gt_boxes), len(text.split()),
                            is_absence(tree))


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
    """The benchmark's scene ids in order and its labels: all that matching
    needs, and all that read_benchmark_truth() gives back. A benchmark built
    in memory also holds its Scenes and their features (scene_id ->
    RegionFeatures), which running a model on it needs."""
    scene_ids: tuple[int, ...]
    category_labels: tuple[CategoryLabel, ...]
    description_labels: tuple[DescriptionLabel, ...]
    scenes: tuple = ()
    features: dict = field(default_factory=dict)


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


def match_table(results, benchmark: BenchmarkInstance | None = None) -> MatchTable:
    """The one converter to a MatchTable, the half of scoring that does not
    depend on the IoU threshold: a MatchTable as it is, or the detections of
    `results` (anything result_columns() takes) on `benchmark`. Each
    category label pools its rows on the benchmark's scenes in their order;
    each description label has its own scene."""
    if isinstance(results, MatchTable):
        return results
    if benchmark is None:
        raise TypeError("scoring detections needs the benchmark they were scored on")
    descs = benchmark.description_labels
    pools = [(label.label_id, benchmark.scene_ids, label.gt_boxes)
             for label in benchmark.category_labels]
    pools += [(label.label_id, (label.scene_id,), {label.scene_id: label.gt_boxes})
              for label in descs]
    return _pooled_table(result_columns(results), pools)._replace(
        words=np.array([label.words for label in descs], dtype=np.int64),
        absent=np.array([label.absent for label in descs], dtype=np.uint8))


def _description_aps(table: MatchTable, iou_threshold: float) -> list[float]:
    return _table_aps(table.pools(table.n_categories, len(table.pool_dets)),
                      iou_threshold).tolist()


def omnilabel_report(results, benchmark: BenchmarkInstance | None = None,
                     iou_threshold: float = 0.5) -> MetricReport:
    """Full description-aware report over a benchmark instance.

    `results` is the benchmark's MatchTable, as match_table.bin holds it,
    or covers both category and description labels of `benchmark` as
    anything result_columns() takes: the columns of results.bin, a Results
    table, JSONL rows {label_id, scene_id, detections:[{box, score}]} or a
    mapping keyed by (label_id, scene_id); match_table() then builds the
    table. Each category label is scored by one pooled_average_precision()
    call on its slice of the table; the description labels by one
    _table_aps() call.
    """
    table = match_table(results, benchmark)
    cat_aps = [pooled_average_precision(table.pools(i, i + 1), None, iou_threshold)
               for i in range(table.n_categories)]
    desc_aps = _description_aps(table, iou_threshold)
    desc_gt = table.pool_gt[table.n_categories:].tolist()

    ap_categ = 100.0 * _mean(cat_aps)
    ap_descr = 100.0 * _mean(desc_aps)
    ap_pos = 100.0 * _mean(ap for n_gt, ap in zip(desc_gt, desc_aps) if n_gt)
    buckets = ([], [], [])
    for words, ap in zip(table.words.tolist(), desc_aps):
        buckets[_bucket(words)].append(ap)
    d3_full, d3_pres, d3_abs = d3_report(table, None, iou_threshold, description_aps=desc_aps)
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


def d3_report(results, benchmark: BenchmarkInstance | None = None, iou_threshold: float = 0.5, *,
              description_aps=None) -> tuple[float, float, float]:
    """(FULL, PRES, ABS) description APs partitioned by each label's
    absence flag, from anything omnilabel_report() takes.

    `description_aps`, one AP per description label in benchmark order, are
    used instead of scoring `results` again; omnilabel_report passes its own.
    """
    table = match_table(results, benchmark)
    if description_aps is None:
        description_aps = _description_aps(table, iou_threshold)
    pres, absent = [], []
    for flag, ap in zip(table.absent.tolist(), description_aps):
        (absent if flag else pres).append(ap)
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
    per-row detection counts, float64 boxes (n, 4) and float64 scores (n,).
    Each row's arrays are written as they are, without a joined copy."""
    table = _normalize_results(results)
    dets = list(table.values())
    write_table(path, RESULTS_TABLE, (len(dets), sum(len(d.scores) for d in dets)),
                ([list(table)], [[len(d.scores) for d in dets]],
                 [d.boxes for d in dets], [d.scores for d in dets]))


def read_results_table(path) -> ResultColumns:
    """The ResultColumns of a write_results_table() file, bit for bit as
    written. Checks the magic, the version, that the file is exactly as long
    as its counts say, and that the per-row counts are non-negative and sum
    to the detection count. Raises ValueError naming the file."""
    (_, n_dets), columns = read_table(path, RESULTS_TABLE)
    check_row_counts(path, columns[1], n_dets)
    return ResultColumns(*columns)


def write_description_labels(path, labels) -> None:
    """benchmark_labels.jsonl: one line {label_id, scene_id, text, gt_boxes}
    per description label."""
    write_jsonl(path, ({"label_id": label.label_id, "scene_id": label.scene_id, "text": label.text,
                        "gt_boxes": [list(box) for box in label.gt_boxes]} for label in labels))


def read_description_labels(path, lexicon: Lexicon | None = None) -> list[DescriptionLabel]:
    """The labels of a benchmark_labels.jsonl file, each text parsed with
    `lexicon` for its absence flag."""
    return read_jsonl(path, lambda row: description_label(
        row["label_id"], row["scene_id"], row["text"],
        (tuple(box) for box in row["gt_boxes"]), parse(row["text"], lexicon)))


TRUTH_TABLE = TableFormat(
    "benchmark truth table", b"GDBT", 1,
    ("scenes", "category_labels", "category_scenes", "category_boxes",
     "description_labels", "description_boxes"),
    (("<i8", ("scenes",)),  # scene ids, in benchmark order
     ("<i8", ("category_labels",)),  # category label ids
     ("<i8", ("category_labels",)),  # scenes per category label
     ("<i8", ("category_scenes",)),  # each category label's scenes, in order
     ("<i8", ("category_scenes",)),  # boxes per (category label, scene)
     ("<f8", ("category_boxes", 4)),
     ("<i8", ("description_labels",)),  # description label ids
     ("<i8", ("description_labels",)),  # their scenes
     ("<i8", ("description_labels",)),  # their word counts
     ("<u1", ("description_labels",)),  # their absence flags, 0 or 1
     ("<i8", ("description_labels",)),  # boxes per description label
     ("<f8", ("description_boxes", 4))))


def _box_chunk(boxes) -> np.ndarray:
    return np.array(boxes, dtype=float).reshape(-1, 4)


def write_benchmark_truth(path, benchmark: BenchmarkInstance) -> None:
    """benchmark_truth.bin: what matching needs of the benchmark, as one
    TRUTH_TABLE: its scene ids, each category label's boxes by scene (the
    scenes that have its objects, in order) and each description label's
    scene, boxes, word count and absence flag. Label names and texts are
    left out. A later version can add per-description columns, such as the
    role of each object on the label's scene, after these."""
    cats, descs = benchmark.category_labels, benchmark.description_labels
    cat_gt = [gt for label in cats for gt in label.gt_boxes.values()]
    columns = ([benchmark.scene_ids], [[label.label_id for label in cats]],
               [[len(label.gt_boxes) for label in cats]],
               [[scene_id for label in cats for scene_id in label.gt_boxes]],
               [[len(gt) for gt in cat_gt]], [_box_chunk(gt) for gt in cat_gt],
               [[label.label_id for label in descs]], [[label.scene_id for label in descs]],
               [[label.words for label in descs]], [[label.absent for label in descs]],
               [[len(label.gt_boxes) for label in descs]],
               [_box_chunk(label.gt_boxes) for label in descs])
    counts = (len(benchmark.scene_ids), len(cats), len(cat_gt), sum(map(len, cat_gt)),
              len(descs), sum(len(label.gt_boxes) for label in descs))
    write_table(path, TRUTH_TABLE, counts, columns)


def _first_repeat(values: np.ndarray):
    """The smallest value that occurs more than once in `values`, or None."""
    values = np.sort(values)
    repeats = values[1:][values[1:] == values[:-1]]
    return repeats[0].item() if len(repeats) else None


def _check_truth_ids(path, scene_ids, cat_ids, cat_owner, cat_scenes, desc_ids,
                     desc_scenes) -> None:
    """Raise ValueError naming `path` unless the scene ids are distinct, no
    label id is used twice (category and description labels alike), every
    label's scene is one of the benchmark's and no category label lists a
    scene twice. Matching joins rows to labels and scenes by these ids, so
    any of these would make it score the wrong rows. cat_owner is the
    category label of each of cat_scenes."""
    repeat = _first_repeat(scene_ids)
    if repeat is not None:
        raise ValueError(f"{path}: scene id {repeat} is repeated")
    repeat = _first_repeat(np.concatenate([cat_ids, desc_ids]))
    if repeat is not None:
        raise ValueError(f"{path}: label id {repeat} is used twice")
    label_scenes = np.concatenate([cat_scenes, desc_scenes])
    (position,) = _index_of(scene_ids, label_scenes)
    if (position < 0).any():
        at = int(np.argmax(position < 0))
        label_id = np.concatenate([cat_ids[cat_owner], desc_ids])[at]
        raise ValueError(f"{path}: label {label_id} is on scene {label_scenes[at]}, which is not "
                         f"one of the benchmark's scenes")
    repeat = _first_repeat(cat_owner * len(scene_ids) + position[:len(cat_owner)])
    if repeat is not None:
        raise ValueError(f"{path}: category label {cat_ids[repeat // len(scene_ids)]} lists "
                         f"scene {scene_ids[repeat % len(scene_ids)]} twice")


def read_benchmark_truth(path) -> BenchmarkInstance:
    """The BenchmarkInstance of a write_benchmark_truth() file: scene ids and
    labels, with boxes as written bit for bit, and no scenes, features,
    names or texts. Checks the magic, the version and the exact length; that
    the scenes per category label, the boxes per (category label, scene) and
    the boxes per description label are non-negative and sum to the counts
    in the header; that every absence flag is 0 or 1; and the ids, as
    _check_truth_ids() does. Raises ValueError naming the file."""
    (_, _, n_cat_scenes, n_cat_boxes, _, n_desc_boxes), columns = read_table(path, TRUTH_TABLE)
    (scene_ids, cat_ids, cat_scene_counts, cat_scenes, cat_box_counts, cat_boxes,
     desc_ids, desc_scenes, desc_words, desc_absent, desc_box_counts, desc_boxes) = columns
    if desc_absent.max(initial=0) > 1:
        raise ValueError(f"{path}: absence flags must be 0 or 1")
    cat_rows = row_slices(path, cat_scene_counts, n_cat_scenes)
    cat_owner = np.repeat(np.arange(len(cat_ids)), cat_scene_counts)
    _check_truth_ids(path, scene_ids, cat_ids, cat_owner, cat_scenes, desc_ids, desc_scenes)
    cat_boxes = list(map(tuple, cat_boxes.tolist()))
    cat_gt = [cat_boxes[rows] for rows in row_slices(path, cat_box_counts, n_cat_boxes)]
    cat_scenes = cat_scenes.tolist()
    cats = tuple(CategoryLabel(label_id, None, dict(zip(cat_scenes[rows], cat_gt[rows])))
                 for label_id, rows in zip(cat_ids.tolist(), cat_rows))
    desc_boxes = list(map(tuple, desc_boxes.tolist()))
    descs = tuple(DescriptionLabel(label_id, scene_id, None, tuple(desc_boxes[rows]), words,
                                   bool(absent))
                  for label_id, scene_id, words, absent, rows
                  in zip(desc_ids.tolist(), desc_scenes.tolist(), desc_words.tolist(),
                         desc_absent.tolist(), row_slices(path, desc_box_counts, n_desc_boxes)))
    return BenchmarkInstance(tuple(scene_ids.tolist()), cats, descs)


MATCH_TABLE = TableFormat(
    "match table", b"GDMT", 1, ("pools", "descriptions", "tasks", "candidates", "boxes"),
    (("<i8", ("pools",)),  # detections per pool
     ("<i8", ("pools",)),  # ground-truth boxes per pool
     ("<i8", ("descriptions",)),  # word count of each description pool, the last pools
     ("<u1", ("descriptions",)),  # their absence flags, 0 or 1
     ("<i8", ("tasks",)),  # each task's pool
     ("<i8", ("tasks",)),  # ground-truth boxes per task
     ("<i8", ("candidates",)),  # each candidate's task
     ("<i8", ("candidates",)),  # its 1-based rank in its pool
     ("<f8", ("candidates", "boxes"))))  # its IoU with each box of its task


def write_match_table(path, table: MatchTable) -> None:
    """match_table.bin: a MatchTable (match_table() builds one) as one
    MATCH_TABLE, each column as it is."""
    counts = (len(table.pool_dets), len(table.words), len(table.task_gt), len(table.cand_task),
              table.cand_ious.shape[1])
    write_table(path, MATCH_TABLE, counts, [[column] for column in table])


def _check_match_table(table: MatchTable) -> str | None:
    """What makes `table` unfit to match from, or None: matching indexes
    pools by task and tasks by candidate, steps each task's candidates in
    the order they are stored and takes a true positive's precision from
    its rank, so each of these would score the wrong detections or fail."""
    n_pools, n_tasks = len(table.pool_dets), len(table.task_gt)
    if len(table.words) > n_pools:
        return f"{len(table.words)} description pools of {n_pools} pools"
    if min(table.pool_dets.min(initial=0), table.pool_gt.min(initial=0)) < 0:
        return "a pool's detection or ground-truth count is negative"
    if table.absent.max(initial=0) > 1:
        return "absence flags must be 0 or 1"
    if n_tasks and not (0 <= table.task_pool[0] and table.task_pool[-1] < n_pools
                        and (np.diff(table.task_pool) >= 0).all()):
        return f"task pools must be non-decreasing pool indices below {n_pools}"
    width = table.cand_ious.shape[1]
    if table.task_gt.min(initial=1) < 1 or table.task_gt.max(initial=0) != width:
        return (f"every task needs ground-truth boxes, and the most a task has must be the "
                f"table's box count, {width}")
    if (np.bincount(table.task_pool, weights=table.task_gt, minlength=n_pools) > table.pool_gt).any():
        return "a pool's tasks have more ground-truth boxes than the pool"
    task, rank = table.cand_task, table.cand_rank
    if len(task) and not (0 <= task[0] and task[-1] < n_tasks):
        return f"candidate tasks must be task indices below {n_tasks}"
    step = np.diff(task)
    if (step < 0).any() or (np.diff(rank)[step == 0] <= 0).any():
        return "candidates must be ordered by task, then by rank"
    pool = table.task_pool[task]
    if len(rank) and not (1 <= rank.min() and (rank <= table.pool_dets[pool]).all()):
        return "a candidate's rank must lie between 1 and its pool's detection count"
    pool_rank = np.lexsort((rank, pool))
    if ((np.diff(pool[pool_rank]) == 0) & (np.diff(rank[pool_rank]) == 0)).any():
        return "two candidates of one pool share a rank"
    return None


def read_match_table(path) -> MatchTable:
    """The MatchTable of a write_match_table() file, bit for bit as written.
    Checks the magic, the version and the exact length, and the indices,
    counts and order that matching relies on (_check_match_table()). Raises
    ValueError naming the file."""
    _, columns = read_table(path, MATCH_TABLE)
    table = MatchTable(*columns)
    problem = _check_match_table(table)
    if problem is not None:
        raise ValueError(f"{path}: {problem}")
    return table
