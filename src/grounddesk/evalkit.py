"""Description-aware detection metrics: per-label average precision with
greedy IoU matching and all-point interpolation, harmonic-mean headline AP,
positive-only and length-bucketed description APs, and presence/absence splits.

Per-label APs are macro-averaged. A label with no ground truth and no
detections is undefined and skipped from means; a label with detections but
no ground truth contributes 0, so firing on negative descriptions is
penalized.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .langparse import ParseTree, is_absence
from .storage import TableFormat, read_table, write_jsonl, write_table

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


class ResultColumns(NamedTuple):
    """A detector's results on a benchmark as four columns, in row order:
    int64 keys (rows, 2) of (label_id, scene_id), counts (rows,), boxes
    (n, 4) and scores (n,). Row i holds the counts[i] detections that follow
    those of the rows before it. run_model_on_benchmark() writes one row per
    (label, scene) with detections; rows that share a key are joined in
    order when matched."""
    keys: np.ndarray
    counts: np.ndarray
    boxes: np.ndarray
    scores: np.ndarray

    @staticmethod
    def from_rows(keys, boxes, scores) -> ResultColumns:
        """The columns of rows given as their (label_id, scene_id) keys and,
        for each row, its (n, 4) boxes and (n,) scores."""
        return ResultColumns(np.array(keys, dtype=np.int64).reshape(-1, 2),
                             np.array([len(s) for s in scores], dtype=np.int64),
                             np.concatenate([np.empty((0, 4)), *boxes]),
                             np.concatenate([np.empty(0), *scores]))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices start, ..., start + count - 1 of each range, concatenated."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _index_of(values: np.ndarray, *queries: np.ndarray) -> list[np.ndarray]:
    """For each array of queries, the index of each query's first occurrence
    in `values`, -1 where it has none, by np.searchsorted in the sorted
    distinct values."""
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
    share a key join in row order. Each pool ranks its detections highest
    score first, stable on ties (_ranking()), and a detection's rank in its
    pool comes from the inverse permutation of the ranking. A segment with
    detections and ground truth is a task; each of its detections' IoUs with
    the task's boxes, padded to the most boxes a task has, is computed once.
    """
    boxes, counts, scores = columns.boxes, columns.counts, columns.scores
    label_ids, scene_lists, gts = zip(*pools) if pools else ((), (), ())
    n_pools = len(pools)
    n_scenes = np.fromiter(map(len, scene_lists), dtype=np.intp, count=n_pools)
    seg_pool = np.repeat(np.arange(n_pools), n_scenes)
    label_ids = np.array(label_ids, dtype=np.int64)
    seg_scene = np.array(list(chain.from_iterable(scene_lists)), dtype=np.int64)
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
        np.array(list(chain.from_iterable(gts)), dtype=np.int64))
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
    0 when it has only one of them. The label comes in one of three forms:
    its (box, score) detections on one scene with the list of its
    ground-truth boxes there; a mapping scene_id -> (box, score) detections
    with a mapping scene_id -> boxes, pooled across the scenes: ranked as one
    list, in scene order on equal scores, and matched scene by scene; or the
    MatchTable of the label alone, which holds its ground truth, with
    `gt_boxes` None."""
    if isinstance(detections, MatchTable):
        if gt_boxes is not None or len(detections.pool_dets) != 1:
            raise ValueError("a MatchTable is scored alone, and only the table of one label")
        return _table_aps(detections, iou_threshold).item()
    if not isinstance(gt_boxes, Mapping):
        detections, gt_boxes = {0: detections}, {0: list(gt_boxes)}
    pairs = [list(dets) for dets in detections.values()]
    columns = ResultColumns.from_rows(
        [(0, scene_id) for scene_id in detections],
        [np.array([box for box, _ in dets], dtype=float).reshape(-1, 4) for dets in pairs],
        [np.array([score for _, score in dets], dtype=float) for dets in pairs])
    table = _pooled_table(columns, [(0, tuple(detections), gt_boxes)])
    return _table_aps(table, iou_threshold).item()


def pooled_average_precision(dets_by_scene, gt_by_scene: dict | None = None,
                             iou_threshold: float = 0.5) -> float:
    """AP for one label pooled across scenes: average_precision() of its
    detections by scene with its ground truth by scene, or of its MatchTable
    alone. omnilabel_report() scores each category label by one call on its
    slice of the table."""
    return average_precision(dets_by_scene, gt_by_scene, iou_threshold)


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
    """A description label on one scene. `words`, the text's word count,
    sets its length bucket, and `absent` says whether the text expresses
    absence; both are fixed when the label is made (description_label()),
    so scoring never parses."""
    label_id: int
    scene_id: int
    text: str
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
    needs. A benchmark built in memory also holds its Scenes and their
    features (scene_id -> RegionFeatures), which running a model on it
    needs."""
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


def match_table(results: ResultColumns | MatchTable,
                benchmark: BenchmarkInstance | None = None) -> MatchTable:
    """The one converter to a MatchTable, the half of scoring that does not
    depend on the IoU threshold: a MatchTable alone as it is, or the
    ResultColumns of detections on `benchmark`. Each category label pools
    its rows on the benchmark's scenes in their order; each description
    label has its own scene. Two labels with one label_id raise ValueError,
    since both would score the rows of that id."""
    if isinstance(results, MatchTable):
        return results
    if not isinstance(results, ResultColumns) or results.keys.dtype.kind not in "iu":
        raise TypeError("detections are scored as ResultColumns with integer keys")
    if benchmark is None:
        raise TypeError("scoring detections needs the benchmark they were scored on")
    descs = benchmark.description_labels
    ids = Counter(label.label_id for label in (*benchmark.category_labels, *descs))
    repeated = [label_id for label_id, n in ids.items() if n > 1]
    if repeated:
        raise ValueError(f"label id {repeated[0]} names two labels of the benchmark")
    pools = [(label.label_id, benchmark.scene_ids, label.gt_boxes)
             for label in benchmark.category_labels]
    pools += [(label.label_id, (label.scene_id,), {label.scene_id: label.gt_boxes})
              for label in descs]
    return _pooled_table(results, pools)._replace(
        words=np.array([label.words for label in descs], dtype=np.int64),
        absent=np.array([label.absent for label in descs], dtype=np.uint8))


def _description_aps(table: MatchTable, iou_threshold: float) -> list[float]:
    return _table_aps(table.pools(table.n_categories, len(table.pool_dets)),
                      iou_threshold).tolist()


def omnilabel_report(results, benchmark: BenchmarkInstance | None = None,
                     iou_threshold: float = 0.5) -> MetricReport:
    """Full description-aware report over a benchmark instance.

    `results` is the benchmark's MatchTable alone, as match_table.bin holds
    it, or the ResultColumns of a model's detections on `benchmark`, from
    which match_table() builds the table. Each category label is scored by
    one pooled_average_precision() call on its slice of the table; the
    description labels by one _table_aps() call.
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
    absence flag, from a MatchTable alone or ResultColumns with `benchmark`,
    as omnilabel_report() takes them.

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


_BOX_BYTES = np.dtype((np.void, 32))  # one (x, y, w, h) float64 box


def write_results(path, columns: ResultColumns) -> None:
    """results.jsonl: one line per row of `columns`, byte-identical to
    json.dumps(row, sort_keys=True) of its {label_id, scene_id, detections}
    row, its detections [{box, score}] in column order.

    json writes a float as float.__repr__ and a list of floats as its repr,
    apart from the non-finite spellings. A box recurs in the rows of every
    label on its scene, so its text is made once, keyed by its exact bytes.
    """
    box_keys = np.ascontiguousarray(columns.boxes, dtype=float).view(_BOX_BYTES).ravel().tolist()
    det_head: dict[bytes, str] = {}  # box bytes -> '{"box": [...], "score": '
    for key, box in zip(box_keys, columns.boxes.tolist()):
        if key not in det_head:
            det_head[key] = f'{{"box": {box!r}, "score": '
    dets = [f"{det_head[key]}{score!r}}}" for key, score in zip(box_keys, columns.scores.tolist())]
    start = 0
    with open(path, "w", encoding="utf-8") as fh:
        for (label_id, scene_id), end in zip(columns.keys.tolist(),
                                             np.cumsum(columns.counts).tolist()):
            body = _json_floats(", ".join(dets[start:end]))
            fh.write(f'{{"detections": [{body}], "label_id": {label_id}, '
                     f'"scene_id": {scene_id}}}\n')
            start = end


def write_description_labels(path, labels) -> None:
    """benchmark_labels.jsonl: one line {label_id, scene_id, text, gt_boxes}
    per description label."""
    write_jsonl(path, ({"label_id": label.label_id, "scene_id": label.scene_id, "text": label.text,
                        "gt_boxes": [list(box) for box in label.gt_boxes]} for label in labels))


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
