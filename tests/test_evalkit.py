import dataclasses
import json
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grounddesk import evalkit
from grounddesk.evalkit import (LENGTH_BUCKETS, BenchmarkInstance, CategoryLabel,
                                DescriptionLabel, DetectionArrays, Results, ResultColumns,
                                as_detection_arrays, average_precision, d3_report,
                                harmonic_mean, iou, iou_array, omnilabel_report,
                                pooled_average_precision, result_columns)
from grounddesk.langparse import is_absence, parse
from grounddesk.scenegen import BenchmarkConfig, make_benchmark, read_scenes, write_scenes
from grounddesk.storage import write_table


# Brute-force PR integration, independent of the incremental evaluator: the
# prefix matching is recomputed from scratch at every rank and the curve is
# integrated with exact rational arithmetic.

def oracle_iou(a, b):
    ix = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    iy = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def oracle_ap(dets, gts, thr=0.5):
    if not gts:
        return 0.0 if dets else math.nan
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    points = []
    for k in range(1, len(order) + 1):
        taken = set()
        tp = 0
        for i in order[:k]:
            best_j, best_v = None, -1.0
            for j, gt in enumerate(gts):
                if j in taken:
                    continue
                v = oracle_iou(dets[i][0], gt)
                if v >= thr and v > best_v:
                    best_j, best_v = j, v
            if best_j is not None:
                taken.add(best_j)
                tp += 1
        points.append((Fraction(tp, len(gts)), Fraction(tp, k)))
    ap = Fraction(0)
    prev_r = Fraction(0)
    for k, (r, _p) in enumerate(points):
        if r > prev_r:
            ap += (r - prev_r) * max(p for _r, p in points[k:])
            prev_r = r
    return float(ap)


def random_instance(rng, max_dets=20):
    def box():
        w, h = rng.uniform(0.05, 0.4, size=2)
        return (float(rng.uniform(0, 1 - w)), float(rng.uniform(0, 1 - h)),
                float(w), float(h))
    gts = [box() for _ in range(rng.integers(0, 5))]
    dets = []
    for _ in range(rng.integers(0, max_dets + 1)):
        if gts and rng.random() < 0.5:
            gx, gy, gw, gh = gts[int(rng.integers(0, len(gts)))]
            jitter = rng.normal(0, 0.02, size=4)
            cand = (gx + jitter[0], gy + jitter[1],
                    max(0.01, gw + jitter[2]), max(0.01, gh + jitter[3]))
        else:
            cand = box()
        dets.append((cand, float(rng.random())))
    return dets, gts


def test_iou_basics():
    assert iou((0.1, 0.1, 0.3, 0.3), (0.1, 0.1, 0.3, 0.3)) == pytest.approx(1.0)
    assert iou((0.0, 0.0, 0.2, 0.2), (0.5, 0.5, 0.2, 0.2)) == 0.0
    assert iou((0, 0, 0.10, 0.10), (0.05, 0, 0.10, 0.10)) == pytest.approx(1 / 3)
    assert iou((0, 0, 0.10, 0.10), (0.05, 0, 0.15, 0.10)) == pytest.approx(0.25)


def test_perfect_single_detection():
    gt = [(0.1, 0.1, 0.2, 0.2)]
    assert average_precision([((0.1, 0.1, 0.2, 0.2), 0.9)], gt) == 1.0


def test_tp_then_fp_is_still_one():
    gt = [(0.1, 0.1, 0.2, 0.2)]
    dets = [((0.1, 0.1, 0.2, 0.2), 0.9), ((0.6, 0.6, 0.2, 0.2), 0.5)]
    assert average_precision(dets, gt) == 1.0


def test_fp_then_tp_is_half():
    gt = [(0.1, 0.1, 0.2, 0.2)]
    dets = [((0.6, 0.6, 0.2, 0.2), 0.9), ((0.1, 0.1, 0.2, 0.2), 0.5)]
    assert average_precision(dets, gt) == 0.5


def test_empty_cases():
    assert math.isnan(average_precision([], []))
    assert average_precision([((0.1, 0.1, 0.2, 0.2), 0.9)], []) == 0.0
    assert average_precision([], [(0.1, 0.1, 0.2, 0.2)]) == 0.0


def test_ap_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        dets, gts = random_instance(rng)
        got = average_precision(dets, gts, 0.5)
        want = oracle_ap(dets, gts, 0.5)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert abs(got - want) < 1e-9


def test_pooled_ap_reduces_to_single_scene():
    rng = np.random.default_rng(1)
    for _ in range(50):
        dets, gts = random_instance(rng)
        single = average_precision(dets, gts, 0.5)
        pooled = pooled_average_precision({0: dets}, {0: gts}, 0.5)
        if math.isnan(single):
            assert math.isnan(pooled)
        else:
            assert pooled == pytest.approx(single)


def _described(label_id, scene_id, text, gt_boxes) -> DescriptionLabel:
    return evalkit.description_label(label_id, scene_id, text, gt_boxes, parse(text))


def test_harmonic_mean_identities():
    assert harmonic_mean(0.0, 0.0) == 0.0
    assert harmonic_mean(30.0, 30.0) == 30.0
    assert harmonic_mean(23.9, 24.7) == pytest.approx(24.3, abs=0.05)
    assert harmonic_mean(30.3, 22.3) == pytest.approx(25.7, abs=0.05)


@pytest.fixture(scope="module")
def small_benchmark(desk20):
    return make_benchmark(desk20, 8, seed=5,
                          config=BenchmarkConfig(fraction_negative=0.5))


def perfect_results(benchmark):
    rows = []
    for label in benchmark.category_labels:
        for scene_id, boxes in label.gt_boxes.items():
            rows.append({"label_id": label.label_id, "scene_id": scene_id,
                         "detections": [{"box": list(b), "score": 0.9} for b in boxes]})
    for label in benchmark.description_labels:
        if label.gt_boxes:
            rows.append({"label_id": label.label_id, "scene_id": label.scene_id,
                         "detections": [{"box": list(b), "score": 0.9}
                                        for b in label.gt_boxes]})
    return rows


def test_perfect_detector_scores_100(small_benchmark):
    report = omnilabel_report(perfect_results(small_benchmark), small_benchmark)
    assert report.AP_categ == pytest.approx(100.0)
    assert report.AP_descr == pytest.approx(100.0)
    assert report.AP == pytest.approx(100.0)
    assert sum(report.bucket_counts) == len(small_benchmark.description_labels)


def test_negative_description_detection_decreases_ap(small_benchmark):
    rows = perfect_results(small_benchmark)
    base = omnilabel_report(rows, small_benchmark).AP_descr
    neg = next(l for l in small_benchmark.description_labels if not l.gt_boxes)
    rows.append({"label_id": neg.label_id, "scene_id": neg.scene_id,
                 "detections": [{"box": [0.1, 0.1, 0.2, 0.2], "score": 0.99}]})
    worse = omnilabel_report(rows, small_benchmark).AP_descr
    assert worse < base


def test_bucket_move_preserves_overall_ap(small_benchmark, monkeypatch):
    rows = perfect_results(small_benchmark)
    before = omnilabel_report(rows, small_benchmark)
    monkeypatch.setattr(evalkit, "LENGTH_BUCKETS", (4, 8))
    after = omnilabel_report(rows, small_benchmark)
    assert after.AP_descr == pytest.approx(before.AP_descr)
    assert sum(after.bucket_counts) == sum(before.bucket_counts)
    assert after.bucket_counts != before.bucket_counts


def test_report_json_marks_nan_as_null(small_benchmark):
    report = omnilabel_report([], small_benchmark)
    payload = report.to_json()
    assert payload["config"]["interpolation"] == "all-point"
    # with no detections at all, negatives are undefined rather than zero
    assert isinstance(payload["bucket_counts"], list)


def test_d3_partition(small_benchmark):
    rows = perfect_results(small_benchmark)
    full, pres, absent = d3_report(rows, small_benchmark)
    # perfect results fire only on ground truth, so a partition is defined
    # exactly when it holds a label with ground truth
    defined_absence = any("without" in l.text.split() and l.gt_boxes
                          for l in small_benchmark.description_labels)
    if defined_absence:
        assert not math.isnan(absent)
    else:
        assert math.isnan(absent)
        assert full == pytest.approx(pres)


def test_d3_hand_computed_mix():
    # two scenes, one plain and one absence description each, hand-scored
    box = (0.1, 0.1, 0.2, 0.2)
    far = (0.6, 0.6, 0.2, 0.2)
    labels = (
        _described(0, 0, "a dog", (box,)),
        _described(1, 0, "a dog without dots", (far,)),
    )
    assert [label.absent for label in labels] == [False, True]
    bench = BenchmarkInstance(scene_ids=(0,), category_labels=(), description_labels=labels)
    rows = [
        {"label_id": 0, "scene_id": 0, "detections": [{"box": list(box), "score": 0.9}]},
        {"label_id": 1, "scene_id": 0, "detections": [{"box": list(box), "score": 0.9},
                                                      {"box": list(far), "score": 0.5}]},
    ]
    full, pres, absent = d3_report(rows, bench)
    assert pres == pytest.approx(100.0)
    assert absent == pytest.approx(50.0)
    assert full == pytest.approx((100.0 + 50.0) / 2)


def test_results_jsonl_roundtrip(tmp_path, small_benchmark):
    rows = perfect_results(small_benchmark)
    path = tmp_path / "results.jsonl"
    evalkit.write_results(path, rows)
    assert list(evalkit.read_results(path).rows()) == rows


def test_read_results_decodes_straight_into_arrays(tmp_path, small_benchmark):
    path = tmp_path / "results.jsonl"
    evalkit.write_results(path, perfect_results(small_benchmark))
    table = evalkit.read_results(path)
    assert isinstance(table, Results) and len(table)
    for dets in table.values():
        assert isinstance(dets, DetectionArrays)
        assert dets.boxes.dtype == dets.scores.dtype == np.float64
        assert dets.boxes.shape == (len(dets.scores), 4)


def test_read_results_joins_lines_that_share_a_key(tmp_path):
    path = tmp_path / "results.jsonl"
    path.write_text('{"detections": [{"box": [0, 0, 1, 1], "score": 0.5}], '
                    '"label_id": 1, "scene_id": 2}\n'
                    '{"detections": [], "label_id": 3, "scene_id": 2}\n'
                    '{"detections": [{"box": [0.5, 0, 0.5, 1], "score": NaN}], '
                    '"label_id": 1, "scene_id": 2}\n')
    table = evalkit.read_results(path)
    assert list(table) == [(1, 2), (3, 2)]
    assert table[1, 2].boxes.tolist() == [[0, 0, 1, 1], [0.5, 0, 0.5, 1]]
    assert table[1, 2].scores[0] == 0.5 and math.isnan(table[1, 2].scores[1])
    assert table[3, 2].boxes.shape == (0, 4) and table[3, 2].scores.shape == (0,)


@pytest.mark.parametrize("line", [
    '{"detections": [{"box": [0, 0, 1, 1], "score": 0.5}], "label_id": 1, "sce',
    '{"detections": [{"box": [0, 0, 1], "score": 0.5}], "label_id": 1, "scene_id": 2}',
    '{"detections": [{"box": [0, 0, 1, 1, 1], "score": 0.5}], "label_id": 1, "scene_id": 2}',
    '{"detections": [{"box": [0, 0, 1, 1], "score": [0.5]}], "label_id": 1, "scene_id": 2}',
    '{"detections": [{"box": [0, 0, 1, 1], "score": "x"}], "label_id": 1, "scene_id": 2}',
    '{"detections": [{"box": [0, 0, 1, 1]}], "label_id": 1, "scene_id": 2}',
    '{"detections": [], "label_id": 1}',
    '[1, 2]',
], ids=["cut", "short_box", "long_box", "list_score", "text_score", "no_score", "no_scene",
        "not_a_row"])
def test_read_results_names_the_file_and_line_of_a_bad_row(tmp_path, line):
    path = tmp_path / "results.jsonl"
    path.write_text('{"detections": [], "label_id": 0, "scene_id": 0}\n' + line + "\n")
    with pytest.raises(ValueError, match=r"results\.jsonl line 2"):
        evalkit.read_results(path)


def test_description_labels_round_trip(tmp_path, small_benchmark):
    path = tmp_path / "benchmark_labels.jsonl"
    evalkit.write_description_labels(path, small_benchmark.description_labels)
    assert tuple(evalkit.read_description_labels(path)) == small_benchmark.description_labels
    assert any(not label.gt_boxes for label in small_benchmark.description_labels)


@pytest.mark.parametrize("seed", [5, 11])
def test_category_labels_from_written_scenes_equal_the_benchmarks(tmp_path, desk20, seed):
    """The category labels rebuilt from benchmark_scenes.jsonl, the JSON
    export, equal the ones make_benchmark built."""
    bench = make_benchmark(desk20, 10, seed=seed)
    path = tmp_path / "benchmark_scenes.jsonl"
    write_scenes(path, bench.scenes)
    labels = evalkit.category_labels(desk20, read_scenes(path))
    assert labels == bench.category_labels
    assert [label.label_id for label in labels] == [cat.id for cat in desk20]
    assert sum(len(label.gt_boxes) for label in labels) > 0


# Property tests over the array forms -------------------------------------

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
side = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
boxes = st.tuples(unit, unit, side, side)
# Coarse coordinates make shared edges, equal boxes and exact IoU ties common.
grid_boxes = st.tuples(*[st.integers(0, 8).map(lambda v: v / 8)] * 2,
                       *[st.integers(1, 8).map(lambda v: v / 8)] * 2)
any_boxes = st.one_of(boxes, grid_boxes)
scored = st.lists(st.tuples(any_boxes, st.floats(0.0, 1.0)), max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.lists(any_boxes, min_size=1, max_size=6), st.lists(any_boxes, min_size=1, max_size=6))
def test_iou_array_equals_iou_bit_for_bit(a, b):
    got = iou_array(np.array(a)[:, None, :], np.array(b)[None, :, :])
    want = np.array([[iou(x, y) for y in b] for x in a])
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == iou_array(np.array(b)[:, None, :], np.array(a)[None]).T.tobytes()
    assert ((0.0 <= got) & (got <= 1.0)).all()


@settings(max_examples=200, deadline=None)
@given(scored, st.lists(any_boxes, max_size=5), st.sampled_from([0.5, 0.75, 1.0]))
def test_array_ap_equals_list_ap_and_the_oracle(dets, gts, thr):
    arrays = DetectionArrays(np.array([b for b, _ in dets], dtype=float).reshape(-1, 4),
                             np.array([s for _, s in dets], dtype=float))
    from_arrays = average_precision(arrays, gts, thr)
    from_list = average_precision(dets, gts, thr)
    want = oracle_ap(dets, gts, thr)
    if math.isnan(want):
        assert math.isnan(from_arrays) and math.isnan(from_list)
    else:
        assert from_arrays == from_list
        assert abs(from_arrays - want) <= 1e-9


def loop_pooled_ap(dets_by_scene, gt_by_scene, thr):
    """The per-detection loop that pooled_average_precision vectorises, kept as
    its reference: the same float operations, so results must be equal."""
    n_gt = sum(len(v) for v in gt_by_scene.values())
    entries = [(sid, box, score) for sid, dets in dets_by_scene.items() for box, score in dets]
    if n_gt == 0:
        return 0.0 if entries else math.nan
    entries.sort(key=lambda t: -t[2])
    matched = {sid: [False] * len(boxes) for sid, boxes in gt_by_scene.items()}
    tp, precisions, recalls = 0, [], []
    for k, (sid, box, _score) in enumerate(entries, start=1):
        best, best_iou = None, -1.0
        for j, gt in enumerate(gt_by_scene.get(sid, [])):
            v = iou(box, gt)
            if not matched[sid][j] and v >= thr and v > best_iou:
                best, best_iou = j, v
        if best is not None:
            matched[sid][best] = True
            tp += 1
        precisions.append(tp / k)
        recalls.append(tp / n_gt)
    ap, prev_recall = 0.0, 0.0
    for k in range(len(entries)):
        if recalls[k] > prev_recall:
            ap += (recalls[k] - prev_recall) * max(precisions[k:])
            prev_recall = recalls[k]
    return ap


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(scored, st.lists(any_boxes, max_size=3)), min_size=1, max_size=4),
       st.sampled_from([0.5, 0.75, 1.0]))
def test_pooled_ap_equals_the_loop_reference(scenes, thr):
    dets = {k: d for k, (d, _g) in enumerate(scenes)}
    gts = {k: g for k, (_d, g) in enumerate(scenes)}
    want = loop_pooled_ap(dets, gts, thr)
    arrays = {k: as_detection_arrays(d) for k, d in dets.items()}
    # The label's rows as columns, in scene order; the first scene's
    # detections are split over two rows that share its key.
    first = dets[0]
    rows = [{"label_id": 7, "scene_id": 0, "detections": first[:len(first) // 2]},
            {"label_id": 7, "scene_id": 0, "detections": first[len(first) // 2:]}]
    rows += [{"label_id": 7, "scene_id": k, "detections": d} for k, d in dets.items() if k]
    columns = _unjoined_columns([{**row, "detections": [{"box": b, "score": s}
                                                         for b, s in row["detections"]]}
                                 for row in rows])
    for form in (dets, arrays, columns):
        for got in (pooled_average_precision(form, gts, thr), average_precision(form, gts, thr)):
            assert (math.isnan(got) and math.isnan(want)) or got == want


# S, M and L descriptions, with and without an expression of absence.
TEXTS = ("a dog", "a dog without dots", "a small brown dog next to a red cup",
         "a black cat sitting on a wooden table without a small white cup")
# A few shared scores make exact score ties common, and boxes on a grid of
# quarters make exact IoU ties common: (0, 0, 1/2, 1/4) overlaps both
# (0, 0, 1/4, 1/4) and (1/4, 0, 1/4, 1/4) at IoU 1/2.
tie_scores = st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
quarter_boxes = st.tuples(*[st.integers(0, 3).map(lambda v: v / 4)] * 2,
                          *[st.integers(1, 2).map(lambda v: v / 4)] * 2)
# Boxes without area overlap nothing, themselves included.
flat_boxes = st.tuples(*[st.integers(0, 3).map(lambda v: v / 4)] * 2,
                       *[st.sampled_from([0.0, 0.25])] * 2).filter(lambda b: b[2] * b[3] == 0)


@st.composite
def report_cases(draw):
    """A benchmark with category and description labels and a results table
    for it, as results.jsonl rows. Rows come in any order, may share a key,
    may be empty and may name a label or scene the benchmark lacks; a label
    may have no row and no ground truth. Detections often repeat a ground
    truth box of their label."""
    scene_ids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    gt_boxes = st.lists(st.one_of(quarter_boxes, any_boxes, flat_boxes), max_size=3)
    categories = []
    for label_id in range(draw(st.integers(0, 3))):
        gt = {scene_id: draw(gt_boxes) for scene_id in scene_ids}
        categories.append(CategoryLabel(label_id, f"c{label_id}",
                                        {k: v for k, v in gt.items() if v}))
    descriptions = tuple(
        _described(100 + k, draw(st.sampled_from(scene_ids)), draw(st.sampled_from(TEXTS)),
                   draw(gt_boxes))
        for k in range(draw(st.integers(0, 4))))
    boxes_of = {}
    for label in categories:
        for scene_id, boxes in label.gt_boxes.items():
            boxes_of.setdefault((label.label_id, scene_id), []).extend(boxes)
    for label in descriptions:
        boxes_of.setdefault((label.label_id, label.scene_id), []).extend(label.gt_boxes)
    label_ids = [label.label_id for label in categories] + [label.label_id for label in descriptions]
    any_key = st.tuples(st.sampled_from(label_ids + [99]), st.sampled_from(scene_ids + [42]))
    key_with_gt = st.sampled_from(sorted(boxes_of)) if boxes_of else any_key
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        key = draw(st.one_of(key_with_gt, any_key))
        own = boxes_of.get(key, [])
        box = st.one_of(quarter_boxes, st.sampled_from(own) if own else any_boxes, any_boxes,
                        flat_boxes)
        dets = draw(st.lists(st.tuples(box, tie_scores), max_size=4))
        rows.append({"label_id": key[0], "scene_id": key[1],
                     "detections": [{"box": list(b), "score": score} for b, score in dets]})
    bench = BenchmarkInstance(scene_ids=tuple(scene_ids), category_labels=tuple(categories),
                              description_labels=descriptions)
    return bench, rows


def loop_aps(rows, bench, thr) -> list[float]:
    """Each label's AP from one loop_pooled_ap() call, category labels
    first: rows that share a key joined in order, a category label pooled
    over the benchmark's scenes in their order."""
    table = {}
    for row in rows:
        table.setdefault((row["label_id"], row["scene_id"]), []).extend(
            (tuple(d["box"]), d["score"]) for d in row["detections"])
    return [loop_pooled_ap({s: table[label.label_id, s] for s in bench.scene_ids
                            if (label.label_id, s) in table}, label.gt_boxes, thr)
            for label in bench.category_labels] + [
        loop_pooled_ap({label.scene_id: table.get((label.label_id, label.scene_id), [])},
                       {label.scene_id: list(label.gt_boxes)}, thr)
        for label in bench.description_labels]


def kernel_aps(results, bench, thr) -> list[float]:
    """The same APs from the benchmark's MatchTable, built in memory and
    thresholded by one _table_aps() call."""
    return evalkit._table_aps(evalkit.match_table(results, bench), thr).tolist()


def loop_report(rows, bench, thr) -> tuple[dict, tuple]:
    """omnilabel_report(...).to_json() and d3_report() of `rows`, from the
    loop_aps()."""
    aps = loop_aps(rows, bench, thr)
    cat_aps, desc_aps = aps[:len(bench.category_labels)], aps[len(bench.category_labels):]
    labels = bench.description_labels

    def mean(aps):
        aps = [ap for ap in aps if not math.isnan(ap)]
        return 100.0 * (sum(aps) / len(aps)) if aps else math.nan

    def bucket(label):
        n = len(label.text.split())
        return 0 if n <= LENGTH_BUCKETS[0] else 1 if n <= LENGTH_BUCKETS[1] else 2

    absent = [is_absence(parse(label.text)) for label in labels]
    d3 = (mean(desc_aps), mean(ap for ap, a in zip(desc_aps, absent) if not a),
          mean(ap for ap, a in zip(desc_aps, absent) if a))
    ap_categ, ap_descr = mean(cat_aps), mean(desc_aps)
    figures = {"AP": harmonic_mean(ap_categ, ap_descr), "AP_categ": ap_categ,
               "AP_descr": ap_descr,
               "AP_descr_pos": mean(ap for ap, l in zip(desc_aps, labels) if l.gt_boxes),
               **{f"AP_descr_{name}": mean(ap for ap, l in zip(desc_aps, labels) if bucket(l) == b)
                  for b, name in enumerate("SML")},
               "d3_full": d3[0], "d3_pres": d3[1], "d3_abs": d3[2]}
    row = {k: None if math.isnan(v) else v for k, v in figures.items()}
    row["bucket_counts"] = [sum(bucket(l) == b for l in labels) for b in range(3)]
    return row, d3


def _same_floats(a, b) -> bool:
    return all((math.isnan(x) and math.isnan(y)) or x == y for x, y in zip(a, b, strict=True))


def _unjoined_columns(rows) -> ResultColumns:
    """One column row per results.jsonl row, in file order: rows that share
    a key stay apart, as a results.bin that another writer made may hold them."""
    keys = np.array([(row["label_id"], row["scene_id"]) for row in rows], dtype=np.int64)
    dets = [as_detection_arrays(row["detections"]) for row in rows]
    return ResultColumns(keys.reshape(-1, 2), np.array([len(d.scores) for d in dets], dtype=np.int64),
                         np.concatenate([np.empty((0, 4)), *(d.boxes for d in dets)]),
                         np.concatenate([np.empty(0), *(d.scores for d in dets)]))


_Q = 0.25
# The first detection overlaps both ground truth boxes at IoU 1/2 and takes
# the first; the second then finds its own box taken.
_IOU_TIE = (BenchmarkInstance(
    scene_ids=(3,), category_labels=(),
    description_labels=(_described(100, 3, "a dog", ((0, 0, _Q, _Q), (_Q, 0, _Q, _Q))),)),
    [{"label_id": 100, "scene_id": 3, "detections": [{"box": [0, 0, 2 * _Q, _Q], "score": 0.9}]},
     {"label_id": 100, "scene_id": 3, "detections": [{"box": [0, 0, _Q, _Q], "score": 0.8}]}])
# Two rows share a key; the score tie between them is broken in file order.
_JOINED_TIE = (BenchmarkInstance(
    scene_ids=(0,), category_labels=(),
    description_labels=(_described(100, 0, "a dog", ((0, 0, _Q, _Q),)),)),
    [{"label_id": 100, "scene_id": 0, "detections": [{"box": [0.5, 0.5, _Q, _Q], "score": 0.5},
                                                     {"box": [0.5, 0, _Q, _Q], "score": 0.5}]},
     {"label_id": 101, "scene_id": 0, "detections": [{"box": [0, 0, _Q, _Q], "score": 0.5}]},
     {"label_id": 100, "scene_id": 0, "detections": [{"box": [0, 0, _Q, _Q], "score": 0.5}]}])

# In each task the top-ranked detection misses every ground truth box and a
# later one hits, so a task's first candidate is not its first detection;
# on scene 1 a second copy of a taken box comes between them.
_MISS_THEN_HIT = (BenchmarkInstance(
    scene_ids=(0, 1), category_labels=(CategoryLabel(0, "c0", {0: [(0, 0, _Q, _Q), (_Q, 0, _Q, _Q)],
                                                               1: [(0, 0, _Q, _Q)]}),),
    description_labels=(_described(100, 1, "a dog", ((2 * _Q, 0, _Q, _Q),)),)),
    [{"label_id": 0, "scene_id": 0, "detections": [{"box": [3 * _Q, 3 * _Q, _Q, _Q], "score": 0.9},
                                                   {"box": [_Q, 0, _Q, _Q], "score": 0.6},
                                                   {"box": [0, 0, _Q, _Q], "score": 0.3}]},
     {"label_id": 0, "scene_id": 1, "detections": [{"box": [3 * _Q, 0, _Q, _Q], "score": 0.8},
                                                   {"box": [0, 0, _Q, _Q], "score": 0.7},
                                                   {"box": [0, 0, _Q, _Q], "score": 0.65},
                                                   {"box": [0, 2 * _Q, _Q, _Q], "score": 0.5}]},
     {"label_id": 100, "scene_id": 1, "detections": [{"box": [0, 0, _Q, _Q], "score": 0.9},
                                                     {"box": [0, _Q, _Q, _Q], "score": 0.8},
                                                     {"box": [2 * _Q, 0, _Q, _Q], "score": 0.1}]}])
# Every score of each pool is tied: the ranking is the pool's scene order,
# then file order, then detection order.
_ALL_TIED = (BenchmarkInstance(
    scene_ids=(5, 2), category_labels=(CategoryLabel(0, "c0", {5: [(0, 0, _Q, _Q)],
                                                               2: [(_Q, _Q, _Q, _Q)]}),),
    description_labels=(_described(100, 2, "a dog", ((0, 0, _Q, _Q), (_Q, 0, _Q, _Q))),)),
    [{"label_id": 0, "scene_id": 2, "detections": [{"box": [0, 0, _Q, _Q], "score": 0.5},
                                                   {"box": [_Q, _Q, _Q, _Q], "score": 0.5}]},
     {"label_id": 100, "scene_id": 2, "detections": [{"box": [2 * _Q, 0, _Q, _Q], "score": 0.5},
                                                     {"box": [_Q, 0, _Q, _Q], "score": 0.5}]},
     {"label_id": 0, "scene_id": 5, "detections": [{"box": [_Q, 0, _Q, _Q], "score": 0.5},
                                                   {"box": [0, 0, _Q, _Q], "score": 0.5}]},
     {"label_id": 100, "scene_id": 2, "detections": [{"box": [0, 0, _Q, _Q], "score": 0.5}]}])


@settings(max_examples=300, deadline=None)
@given(report_cases(), st.sampled_from([0.5, 0.75, 1.0]))
@example(_IOU_TIE, 0.5)
@example(_JOINED_TIE, 0.5)
@example(_MISS_THEN_HIT, 0.5)
@example(_ALL_TIED, 0.5)
def test_reports_equal_the_per_label_loop_reference(tmp_path_factory, case, thr):
    """omnilabel_report and d3_report score every label from the table's
    columns; each figure equals the per-label loop's bit for bit,
    NaN for NaN, from rows, from the Results table, from its columns, and
    from a results.bin whose rows that share a key stay apart."""
    bench, rows = case
    want, want_d3 = loop_report(rows, bench, thr)
    path = tmp_path_factory.mktemp("unjoined") / "results.bin"
    columns = _unjoined_columns(rows)
    write_table(path, evalkit.RESULTS_TABLE, (len(columns.counts), len(columns.scores)),
                [[column] for column in columns])
    want_aps = loop_aps(rows, bench, thr)
    for form in (rows, evalkit._normalize_results(rows), result_columns(rows),
                 evalkit.read_results_table(path)):
        assert _same_floats(kernel_aps(form, bench, thr), want_aps)
        got = omnilabel_report(form, bench, iou_threshold=thr).to_json()
        assert {k: got[k] for k in want} == want
        assert _same_floats(d3_report(form, bench, thr), want_d3)


@settings(max_examples=200, deadline=None)
@given(report_cases(), st.sampled_from([0.5, 0.75, 1.0]))
@example(_IOU_TIE, 0.5)
@example(_JOINED_TIE, 0.5)
def test_truth_table_reads_back_a_benchmark_that_scores_the_same(tmp_path_factory, case, thr):
    """benchmark_truth.bin gives back the scene ids and each label's id,
    scenes, boxes, word count and absence flag as written, and the report
    of the read-back benchmark equals the original's bit for bit, NaN for
    NaN."""
    bench, rows = case
    path = tmp_path_factory.mktemp("truth") / "benchmark_truth.bin"
    evalkit.write_benchmark_truth(path, bench)
    back = evalkit.read_benchmark_truth(path)
    assert back.scene_ids == bench.scene_ids
    assert [(label.label_id, label.gt_boxes) for label in back.category_labels] == [
        (label.label_id, {k: list(v) for k, v in label.gt_boxes.items()})
        for label in bench.category_labels]
    assert back.description_labels == tuple(
        dataclasses.replace(label, text=None, gt_boxes=tuple(map(tuple, label.gt_boxes)))
        for label in bench.description_labels)
    want = omnilabel_report(rows, bench, iou_threshold=thr)
    got = omnilabel_report(rows, back, iou_threshold=thr)
    assert got.to_json() == want.to_json()


def _damaged_truth_tables(raw: bytes):
    """Every proper prefix of a truth table; the table with one magic byte,
    its version or one header count changed; each per-label scene count,
    per-scene box count and per-description box count column with its first
    count raised, and, with two counts or more, made -1 with the second
    raised to keep the sum; and the first absence flag made 2."""
    fmt = evalkit.TRUTH_TABLE
    for cut in range(len(raw)):
        yield raw[:cut]
    head = len(fmt.magic)
    for i in range(head):
        yield raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1:]
    counts = struct.unpack_from(f"<{len(fmt.counts)}Q", raw, head + 2)
    for at, size in [(head, "<H")] + [(head + 2 + 8 * i, "<Q") for i in range(len(counts))]:
        (value,) = struct.unpack_from(size, raw, at)
        for other in (value + 1, value - 1):
            if other >= 0:
                yield raw[:at] + struct.pack(size, other) + raw[at + struct.calcsize(size):]
    at, offsets = head + 2 + 8 * len(counts), []
    for (dtype, _), shape in zip(fmt.columns, fmt.shapes(counts)):
        offsets.append(at)
        at += np.dtype(dtype).itemsize * math.prod(shape)
    shapes = fmt.shapes(counts)
    for column in (2, 4, 10):  # the three per-row count columns
        at, n = offsets[column], shapes[column][0]
        if n >= 1:
            (first,) = struct.unpack_from("<q", raw, at)
            yield raw[:at] + struct.pack("<q", first + 1) + raw[at + 8:]
        if n >= 2:
            first, second = struct.unpack_from("<qq", raw, at)
            yield raw[:at] + struct.pack("<qq", -1, second + first + 1) + raw[at + 16:]
    if shapes[9][0]:
        at = offsets[9]
        yield raw[:at] + b"\x02" + raw[at + 1:]


@settings(max_examples=60, deadline=None)
@given(report_cases())
@example(_IOU_TIE)
def test_truth_table_rejects_every_truncation_and_bad_header_or_count(tmp_path_factory, case):
    path = tmp_path_factory.mktemp("bad") / "benchmark_truth.bin"
    evalkit.write_benchmark_truth(path, case[0])
    raw = path.read_bytes()
    for damaged in _damaged_truth_tables(raw):
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match=r"benchmark_truth\.bin"):
            evalkit.read_benchmark_truth(path)


def test_empty_truth_table_round_trips(tmp_path):
    path = tmp_path / "benchmark_truth.bin"
    evalkit.write_benchmark_truth(path, BenchmarkInstance((), (), ()))
    assert path.read_bytes() == b"GDBT" + struct.pack("<H6Q", 1, *[0] * 6)
    assert evalkit.read_benchmark_truth(path) == BenchmarkInstance((), (), ())


# A truth table written by hand: category labels as (label_id, [(scene_id,
# boxes), ...]) and description labels as (label_id, scene_id, boxes), so
# that an id can repeat where write_benchmark_truth() cannot repeat it.
_BOX = (0.0, 0.0, 0.25, 0.25)
_CLASHES = {
    "repeated_scene": ((0, 1, 0), [(0, [(1, 1)])], [(100, 0, 1)]),
    "category_label_twice": ((0, 1), [(0, [(0, 1)]), (0, [(1, 1)])], []),
    "description_takes_a_category_id": ((0, 1), [(0, [(0, 1)]), (1, [(1, 2)])], [(1, 0, 1)]),
    "description_label_twice": ((0, 1), [], [(100, 0, 1), (100, 1, 0)]),
    "category_scene_not_in_benchmark": ((0, 1), [(0, [(0, 1), (7, 1)])], [(100, 1, 0)]),
    "description_scene_not_in_benchmark": ((0, 1), [(0, [(0, 1)])], [(100, 7, 1)]),
    "category_scene_listed_twice": ((0, 1), [(0, [(1, 1), (1, 2)])], []),
}


def _write_truth_by_hand(path, scene_ids, cats, descs) -> None:
    cat_counts = [n for _, scenes in cats for _, n in scenes]
    desc_counts = [n for _, _, n in descs]
    columns = (scene_ids, [label_id for label_id, _ in cats], [len(scenes) for _, scenes in cats],
               [scene_id for _, scenes in cats for scene_id, _ in scenes], cat_counts,
               [_BOX] * sum(cat_counts), [label_id for label_id, _, _ in descs],
               [scene_id for _, scene_id, _ in descs], [3] * len(descs), [0] * len(descs),
               desc_counts, [_BOX] * sum(desc_counts))
    counts = (len(scene_ids), len(cats), len(cat_counts), sum(cat_counts), len(descs),
              sum(desc_counts))
    write_table(path, evalkit.TRUTH_TABLE, counts, [[column] for column in columns])


@pytest.mark.parametrize("case", list(_CLASHES))
def test_truth_table_rejects_ids_that_would_score_the_wrong_rows(tmp_path, case):
    """A repeated scene id, a label id used twice (also across the two kinds
    of label), a label on a scene that is not the benchmark's, or a category
    label that lists a scene twice would each make matching pool the wrong
    rows or drop ground truth; the reader rejects them and names the file."""
    path = tmp_path / "benchmark_truth.bin"
    _write_truth_by_hand(path, *_CLASHES[case])
    with pytest.raises(ValueError, match=r"benchmark_truth\.bin"):
        evalkit.read_benchmark_truth(path)


def test_hand_written_truth_table_with_distinct_ids_reads_back(tmp_path):
    path = tmp_path / "benchmark_truth.bin"
    _write_truth_by_hand(path, (4, 2), [(0, [(2, 1), (4, 2)]), (1, [])], [(9, 4, 1), (8, 2, 0)])
    bench = evalkit.read_benchmark_truth(path)
    assert bench.scene_ids == (4, 2)
    assert [(label.label_id, label.gt_boxes) for label in bench.category_labels] == [
        (0, {2: [_BOX], 4: [_BOX, _BOX]}), (1, {})]
    assert [(label.label_id, label.scene_id, label.gt_boxes)
            for label in bench.description_labels] == [(9, 4, (_BOX,)), (8, 2, ())]


# match_table.bin ----------------------------------------------------------

def _shift_ids(case, offset: int):
    """The case with every label and scene id raised by `offset`."""
    bench, rows = case
    cats = tuple(CategoryLabel(label.label_id + offset, label.name,
                               {k + offset: v for k, v in label.gt_boxes.items()})
                 for label in bench.category_labels)
    descs = tuple(dataclasses.replace(label, label_id=label.label_id + offset,
                                      scene_id=label.scene_id + offset)
                  for label in bench.description_labels)
    return (BenchmarkInstance(tuple(k + offset for k in bench.scene_ids), cats, descs),
            [{**row, "label_id": row["label_id"] + offset, "scene_id": row["scene_id"] + offset}
             for row in rows])


def _same_tables(a: evalkit.MatchTable, b: evalkit.MatchTable) -> bool:
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a, b, strict=True))


# A category label whose detections all miss its boxes and a description
# label with ground truth and no detections: pools without candidates.
_NO_CANDIDATES = (BenchmarkInstance(
    scene_ids=(0, 1), category_labels=(CategoryLabel(0, "c0", {0: [(0, 0, _Q, _Q)]}),),
    description_labels=(_described(100, 1, "a dog", ((0, 0, _Q, _Q),)),)),
    [{"label_id": 0, "scene_id": 0, "detections": [{"box": [3 * _Q, 3 * _Q, _Q, _Q], "score": 0.9},
                                                   {"box": [0, 0, 0, _Q], "score": 0.8}]},
     {"label_id": 0, "scene_id": 1, "detections": [{"box": [0, 0, _Q, _Q], "score": 0.7}]}])
thresholds = st.one_of(st.sampled_from([0.5, 0.75, 1.0]),
                       st.floats(0.0, 1.0, exclude_min=True))


@settings(max_examples=300, deadline=None)
@given(report_cases(), thresholds, st.sampled_from([0, 70_000, 2**40]))
@example(_IOU_TIE, 0.5, 0)
@example(_JOINED_TIE, 0.5, 2**40)
@example(_MISS_THEN_HIT, 0.5, 0)
@example(_MISS_THEN_HIT, 1.0, 70_000)
@example(_ALL_TIED, 0.5, 0)
@example(_NO_CANDIDATES, 0.5, 0)
def test_match_table_thresholded_equals_the_per_label_loop_reference(tmp_path_factory, case, thr,
                                                                     offset):
    """The MatchTable built in memory, from rows with ids of any size or from
    columns that keep rows sharing a key apart, and thresholded by one
    _table_aps() call, gives each label's AP of the per-label loop bit for
    bit, NaN for NaN, at any threshold in (0, 1]. Written to match_table.bin
    and read back, it is the same table, and omnilabel_report() of it is the
    report of the rows and the loop's."""
    bench, rows = _shift_ids(case, offset)
    want_aps = loop_aps(rows, bench, thr)
    want, _ = loop_report(rows, bench, thr)
    path = tmp_path_factory.mktemp("match") / "match_table.bin"
    tables = [evalkit.match_table(form, bench) for form in (rows, _unjoined_columns(rows))]
    assert _same_tables(*tables)
    evalkit.write_match_table(path, tables[0])
    back = evalkit.read_match_table(path)
    assert _same_tables(back, tables[0])
    for table in (tables[0], back):
        assert _same_floats(evalkit._table_aps(table, thr).tolist(), want_aps)
        got = omnilabel_report(table, iou_threshold=thr).to_json()
        assert {k: got[k] for k in want} == want
        assert got == omnilabel_report(rows, bench, iou_threshold=thr).to_json()
    assert (back.cand_ious > 0).any(axis=1).all()


def test_empty_match_table_round_trips(tmp_path):
    path = tmp_path / "match_table.bin"
    evalkit.write_match_table(path, evalkit.match_table([], BenchmarkInstance((), (), ())))
    assert path.read_bytes() == b"GDMT" + struct.pack("<H5Q", 1, *[0] * 5)
    table = evalkit.read_match_table(path)
    assert [column.shape for column in table] == [(0,)] * 8 + [(0, 0)]
    assert all(math.isnan(v) for v in omnilabel_report(table).to_json().values()
               if isinstance(v, float))


def test_scoring_rejects_a_threshold_outside_the_unit_interval_and_a_missing_benchmark():
    bench, rows = _MISS_THEN_HIT
    table = evalkit.match_table(rows, bench)
    for thr in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match="does not lie in"):
            omnilabel_report(table, iou_threshold=thr)
    with pytest.raises(ValueError, match="only the table of one label"):
        average_precision(table)
    with pytest.raises(TypeError, match="needs the benchmark"):
        omnilabel_report(rows)


def _damaged_match_tables(raw: bytes):
    """Every proper prefix of a match table, and the table with one magic
    byte, its version or one header count changed."""
    fmt = evalkit.MATCH_TABLE
    for cut in range(len(raw)):
        yield raw[:cut]
    head = len(fmt.magic)
    for i in range(head):
        yield raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1:]
    counts = struct.unpack_from(f"<{len(fmt.counts)}Q", raw, head + 2)
    for at, size in [(head, "<H")] + [(head + 2 + 8 * i, "<Q") for i in range(len(counts))]:
        (value,) = struct.unpack_from(size, raw, at)
        for other in (value + 1, value - 1):
            if other >= 0:
                yield raw[:at] + struct.pack(size, other) + raw[at + struct.calcsize(size):]


@settings(max_examples=60, deadline=None)
@given(report_cases())
@example(_MISS_THEN_HIT)
def test_match_table_rejects_every_truncation_and_bad_header_or_count(tmp_path_factory, case):
    path = tmp_path_factory.mktemp("bad") / "match_table.bin"
    evalkit.write_match_table(path, evalkit.match_table(case[1], case[0]))
    for damaged in _damaged_match_tables(path.read_bytes()):
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match=r"match_table\.bin"):
            evalkit.read_match_table(path)


def _set(*changes):
    """A damage that sets column[at] = value for each (column, at, value)."""
    def damage(table):
        columns = [column.copy() for column in table]
        for column, at, value in changes:
            columns[column][at] = value
        return columns
    return damage


# Columns: 0 pool detections, 1 pool ground truth, 2 words, 3 absence flags,
# 4 task pools, 5 task ground truth, 6 candidate tasks, 7 ranks, 8 IoUs.
# _MISS_THEN_HIT has two pools (7 and 3 detections), three tasks and five
# candidates: ranks 5 and 7 of task 0, 3 and 4 of task 1, 3 of task 2.
_BAD_MATCH_TABLES = {
    "more_descriptions_than_pools": (
        lambda table: [*table[:2], np.array([2, 2, 2]), np.zeros(3, dtype=np.uint8), *table[4:]],
        "3 description pools of 2 pools"),
    "task_pool_past_the_pools": (_set((4, 2, 2)), "pool indices below 2"),
    "negative_task_pool": (_set((4, 0, -1)), "pool indices below 2"),
    "task_pools_out_of_order": (_set((4, 1, 1), (4, 2, 0)), "non-decreasing"),
    "candidate_task_past_the_tasks": (_set((6, 4, 3)), "task indices below 3"),
    "negative_candidate_task": (_set((6, 0, -1)), "task indices below 3"),
    "candidates_out_of_task_order": (_set((6, 1, 1), (6, 2, 0)), "ordered by task"),
    "rank_zero": (_set((7, 0, 0)), "between 1 and"),
    "rank_past_the_pool": (_set((7, 1, 8)), "between 1 and"),
    "ranks_out_of_order": (_set((7, 1, 4)), "ordered by task, then by rank"),
    "rank_shared_across_tasks": (_set((7, 3, 5)), "share a rank"),
    "task_without_ground_truth": (_set((5, 0, 0)), "ground-truth boxes"),
    "task_with_more_boxes_than_its_row": (_set((5, 1, 3)), "ground-truth boxes"),
    "tasks_with_more_boxes_than_the_pool": (_set((1, 0, 2)), "more ground-truth boxes"),
    "negative_detection_count": (_set((0, 0, -1)), "negative"),
    "absence_flag_2": (_set((3, 0, 2)), "absence flags"),
}


@pytest.mark.parametrize("case", list(_BAD_MATCH_TABLES))
def test_match_table_rejects_indices_counts_and_order_matching_cannot_use(tmp_path, case):
    """A pool, task or rank out of range, candidates out of (task, rank)
    order, two candidates of one pool at one rank, or a count that
    contradicts another would each make matching index past an array or
    score the wrong detections; the reader rejects them and names the file."""
    damage, message = _BAD_MATCH_TABLES[case]
    table = evalkit.match_table(_MISS_THEN_HIT[1], _MISS_THEN_HIT[0])
    assert table.cand_task.tolist() == [0, 0, 1, 1, 2]
    assert table.cand_rank.tolist() == [5, 7, 3, 4, 3]
    assert table.pool_dets.tolist() == [7, 3] and table.pool_gt.tolist() == [3, 1]
    assert table.task_gt.tolist() == [2, 1, 1] and table.cand_ious.shape == (5, 2)
    path = tmp_path / "match_table.bin"
    evalkit.write_match_table(path, table)
    evalkit.read_match_table(path)
    columns = damage(table)
    counts = (len(columns[0]), len(columns[2]), len(columns[4]), len(columns[6]),
              columns[8].shape[1])
    write_table(path, evalkit.MATCH_TABLE, counts, [[column] for column in columns])
    with pytest.raises(ValueError, match=r"match_table\.bin: .*" + message):
        evalkit.read_match_table(path)


# Scores from a small set with both zeros, NaN and the infinities make ties
# within a pool, ties across pools and runs of NaN common.
_RANK_SCORES = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.25, 0.5])
_rng = np.random.default_rng(7)
_MANY = list(zip(_rng.integers(0, 300, 5000).tolist(),
                 _rng.choice([0.25, 0.5, math.nan, *_rng.random(200)], 5000).tolist()))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), _RANK_SCORES), max_size=40),
       st.sampled_from([1, 70_000]))
@example([(0, 0.5), (0, 0.5), (1, 0.5), (0, 0.25)], 1)  # a tie within a pool
@example([(0, 0.5), (1, 0.5), (2, 0.5), (1, 0.25), (0, 0.25)], 1)  # ties only across pools
@example([(3, s) for s in (math.nan, 0.0, -0.0, math.nan, math.inf, -math.inf, 0.0)], 1)
@example(_MANY, 1)
@example(_MANY, 70_000)
def test_ranking_is_the_stable_lexsort(entries, pool_scale):
    """_ranking() gives np.lexsort((-scores, pools)) exactly: pool by pool,
    highest score first, NaN last, equal scores (0.0 and -0.0 too) in index
    order, with the pools as uint16 or, when they do not fit, as they are."""
    pools = np.array([pool for pool, _ in entries], dtype=np.intp) * pool_scale
    scores = np.array([score for _, score in entries], dtype=float)
    assert evalkit._ranking(scores, pools).tolist() == np.lexsort((-scores, pools)).tolist()


_LARGE_CASES = [pytest.param(thr, tied, id=f"{thr}-three_scores" if tied else str(thr))
                for tied in (False, True) for thr in (0.5, 0.75, 1.0)]


@pytest.mark.parametrize("thr,tied", _LARGE_CASES)
def test_report_of_a_large_table_equals_the_per_label_loop_reference(desk20, thr, tied):
    """Pools with hundreds of detections and dozens of true positives, where
    a sum in any other order than rank order would round differently. At IoU
    1.0 every other detection of a ground truth box is the box itself; with
    `tied`, every score is one of three values, so that nearly every pool
    has runs of equal scores that the ranking must keep in index order."""
    bench = make_benchmark(desk20, 120, seed=3, config=BenchmarkConfig(fraction_negative=0.5))
    rng = np.random.default_rng(0)
    rows = []
    for label in bench.category_labels + bench.description_labels:
        for scene in bench.scenes:
            gt = (label.gt_boxes.get(scene.scene_id, []) if isinstance(label, CategoryLabel)
                  else label.gt_boxes if label.scene_id == scene.scene_id else None)
            if gt is None:
                continue
            dets = [{"box": (np.asarray(box) + rng.normal(0, 0.002, 4)).tolist(),
                     "score": float(rng.choice([0.5, rng.random()]))} for box in gt]
            dets += [{"box": [*rng.uniform(0, 0.7, 2), *rng.uniform(0.05, 0.3, 2)],
                      "score": float(rng.random())} for _ in range(int(rng.integers(0, 4)))]
            if thr == 1.0:  # only a box itself can reach IoU 1: copy every other one
                dets[:len(gt):2] = [{**det, "box": list(box)} for det, box
                                    in zip(dets[:len(gt):2], gt[::2])]
            if tied:
                for det in dets:
                    det["score"] = (0.25, 0.5, 0.75)[min(int(det["score"] * 3), 2)]
            rows.append({"label_id": label.label_id, "scene_id": scene.scene_id,
                         "detections": dets})
    rng.shuffle(rows)
    assert _same_floats(kernel_aps(rows, bench, thr), loop_aps(rows, bench, thr))
    want, want_d3 = loop_report(rows, bench, thr)
    got = omnilabel_report(rows, bench, iou_threshold=thr)
    assert {k: got.to_json()[k] for k in want} == want
    assert _same_floats((got.d3_full, got.d3_pres, got.d3_abs), want_d3)
    assert 0 < got.AP_categ < 100


@settings(max_examples=200, deadline=None)
@given(scored, st.lists(any_boxes, max_size=5), st.randoms(use_true_random=False),
       st.sampled_from([lambda s: 3.0 * s + 0.5, lambda s: s * s * s, math.sqrt]))
def test_ap_ignores_order_and_monotone_score_transforms(dets, gts, rnd, transform):
    assume(len({s for _, s in dets}) == len(dets))
    base = average_precision(dets, gts)
    shuffled = list(dets)
    rnd.shuffle(shuffled)
    moved = [(b, transform(s)) for b, s in dets]
    assume(len({s for _, s in moved}) == len(moved))
    for other in (shuffled, moved):
        got = average_precision(other, gts)
        assert (math.isnan(base) and math.isnan(got)) or got == base


# results.jsonl encoding ---------------------------------------------------

def _dumped(rows):
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def test_write_results_matches_json_dumps_on_edge_floats(tmp_path):
    f64 = np.float64
    rows = [
        {"label_id": 0, "scene_id": 3,
         "detections": [{"box": [f64(0.1), f64(0.25), f64(1 / 3), f64(2 / 3)],
                         "score": 0.1 + 0.2}]},
        {"label_id": 7, "scene_id": 0,
         "detections": [{"box": [5e-324, 0.0, -0.0, 1e300], "score": math.nan},
                        {"box": [0.5, 0.5, 0.5, 0.5], "score": math.inf},
                        {"box": [5e-324, 0.0, -0.0, 1e300], "score": -math.inf},
                        {"box": [math.nan, -math.inf, math.inf, 1.0], "score": 5e-324}]},
        {"label_id": 8, "scene_id": 1, "detections": []},
    ]
    path = tmp_path / "results.jsonl"
    evalkit.write_results(path, rows)
    assert path.read_text(encoding="utf-8") == _dumped(rows)
    # the array table and the {(label, scene): detections} mapping write the same bytes
    table = evalkit._normalize_results(rows)
    assert isinstance(table, Results)
    for form in (table, {key: list(zip(d.boxes.tolist(), d.scores.tolist()))
                         for key, d in table.items()}):
        evalkit.write_results(path, form)
        assert path.read_text(encoding="utf-8") == _dumped(rows)


finite_or_not = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                          st.lists(st.tuples(st.lists(finite_or_not, min_size=4, max_size=4),
                                             finite_or_not), max_size=4)),
                max_size=4, unique_by=lambda r: (r[0], r[1])))
def test_write_results_matches_json_dumps_on_any_float(tmp_path_factory, rows):
    rows = [{"label_id": label, "scene_id": scene,
             "detections": [{"box": box, "score": score} for box, score in dets]}
            for label, scene, dets in rows]
    path = tmp_path_factory.mktemp("enc") / "results.jsonl"
    evalkit.write_results(path, rows)
    assert path.read_text(encoding="utf-8") == _dumped(rows)


def test_results_rows_round_trip_through_the_table(small_benchmark):
    rows = perfect_results(small_benchmark)
    assert list(evalkit._normalize_results(rows).rows()) == rows


def _same_columns(a: ResultColumns, b: ResultColumns) -> bool:
    """Same keys and counts in the same order, and the same boxes and scores
    with the same shapes, bit for bit."""
    return (a.keys.tolist() == b.keys.tolist() and a.counts.tolist() == b.counts.tolist()
            and a.keys.shape == b.keys.shape and a.counts.shape == b.counts.shape
            and all(x.dtype == y.dtype == np.float64 and x.shape == y.shape
                    and x.tobytes() == y.tobytes()
                    for x, y in ((a.boxes, b.boxes), (a.scores, b.scores))))


def test_empty_results_table_round_trips(tmp_path):
    path = tmp_path / "results.bin"
    evalkit.write_results_table(path, Results())
    assert path.read_bytes() == evalkit.RESULTS_MAGIC + struct.pack("<HQQ", 1, 0, 0)
    columns = evalkit.read_results_table(path)
    assert isinstance(columns, ResultColumns)
    assert [column.shape for column in columns] == [(0, 2), (0,), (0, 4), (0,)]
    assert columns.keys.dtype == columns.counts.dtype == np.int64


any_rows = st.lists(st.tuples(st.integers(-2**63, 2**63 - 1), st.integers(-2**63, 2**63 - 1),
                              st.lists(st.tuples(st.lists(finite_or_not, min_size=4, max_size=4),
                                                 finite_or_not), max_size=3)),
                    max_size=4, unique_by=lambda r: (r[0], r[1]))


def _rows(rows):
    return [{"label_id": label, "scene_id": scene,
             "detections": [{"box": box, "score": score} for box, score in dets]}
            for label, scene, dets in rows]


@settings(max_examples=200, deadline=None)
@given(any_rows)
def test_results_table_round_trips_bit_for_bit(tmp_path_factory, rows):
    """Any float, NaN payloads, infinities and -0.0 included, reads back as
    written, and a row without detections stays a row."""
    rows = _rows(rows)
    path = tmp_path_factory.mktemp("table") / "results.bin"
    evalkit.write_results_table(path, rows)
    columns = evalkit.read_results_table(path)
    assert columns.keys.dtype == columns.counts.dtype == np.int64
    assert _same_columns(columns, result_columns(rows))


def _damaged_tables(raw: bytes, n_rows: int):
    """Every proper prefix of a table; the table with one magic byte, its
    version, its row or detection count, or one per-row count changed; and,
    with two rows or more, the first count made -1 and the second raised to
    keep the sum."""
    for cut in range(len(raw)):
        yield raw[:cut]
    head = len(evalkit.RESULTS_MAGIC)
    for i in range(head):
        yield raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1:]
    fields = [(head, "<H"), (head + 2, "<Q"), (head + 10, "<Q")]
    fields += [(head + 18 + 16 * n_rows + 8 * r, "<q") for r in range(n_rows)]
    for at, fmt in fields:
        (value,) = struct.unpack_from(fmt, raw, at)
        for other in (value + 1, value - 1):
            if other >= 0 or fmt == "<q":
                yield raw[:at] + struct.pack(fmt, other) + raw[at + struct.calcsize(fmt):]
    if n_rows >= 2:
        at = head + 18 + 16 * n_rows
        first, second = struct.unpack_from("<qq", raw, at)
        yield raw[:at] + struct.pack("<qq", -1, second + first + 1) + raw[at + 16:]


@settings(max_examples=60, deadline=None)
@given(any_rows)
def test_results_table_rejects_every_truncation_and_bad_header_or_count(tmp_path_factory,
                                                                        rows):
    path = tmp_path_factory.mktemp("bad") / "results.bin"
    evalkit.write_results_table(path, _rows(rows))
    raw = path.read_bytes()
    for damaged in _damaged_tables(raw, len(rows)):
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match=r"results\.bin"):
            evalkit.read_results_table(path)
